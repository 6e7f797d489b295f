module R = Wool_report
module W = Wool_workloads.Workload
module P = Wool_sim.Policy

let test_registry_keys_unique () =
  let keys = R.Registry.keys () in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check int) "unique" (List.length keys) (List.length sorted);
  Alcotest.(check int) "all experiments present" 12 (List.length keys)

let test_registry_find () =
  (match R.Registry.find "fig1" with
  | Some e -> Alcotest.(check string) "key" "fig1" e.R.Registry.key
  | None -> Alcotest.fail "fig1 missing");
  Alcotest.(check bool) "unknown" true (R.Registry.find "nope" = None)

let test_fmt_k () =
  Alcotest.(check string) "small" "500" (R.Exp_common.fmt_k 500.0);
  Alcotest.(check string) "kilo" "1.5k" (R.Exp_common.fmt_k 1500.0);
  Alcotest.(check string) "large" "200k" (R.Exp_common.fmt_k 200_000.0);
  Alcotest.(check string) "infinite" "-" (R.Exp_common.fmt_k infinity)

let test_fig1_shapes () =
  let rows = R.Fig1.fib_series ~n:18 () in
  Alcotest.(check int) "four systems" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.R.Fig1.system ^ " eight points")
        8
        (List.length r.R.Fig1.points))
    rows;
  (* headline claim: Wool's absolute fib speedup beats everyone else's *)
  let at_8 name =
    let r = List.find (fun r -> r.R.Fig1.system = name) rows in
    List.assoc 8.0 r.R.Fig1.points
  in
  List.iter
    (fun other ->
      Alcotest.(check bool)
        (Printf.sprintf "Wool > %s on fib" other)
        true
        (at_8 "Wool" > at_8 other))
    [ "Cilk++"; "TBB"; "OpenMP" ]

let test_table1_rows () =
  let grid = [ W.mm ~reps:2 16; W.stress ~reps:2 ~height:4 ~leaf_iters:64 () ] in
  let rows = R.Table1.compute ~grid () in
  Alcotest.(check int) "rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "overhead model reduces parallelism" true
        (r.R.Table1.parallelism2000 <= r.R.Table1.parallelism0 +. 1e-9);
      Alcotest.(check int) "G_L columns" 7 (List.length r.R.Table1.g_l);
      Alcotest.(check bool) "G_T positive" true (r.R.Table1.g_t > 0.0))
    rows

let test_table2_runs () =
  let rows = R.Table2.compute ~size:R.Exp_common.Spec.Tiny ~repeats:1 () in
  (* the paper's ladder, its two 19-cycle rows measured as one, plus
     the steal-parent row *)
  Alcotest.(check int) "six versions" 6 (List.length rows);
  Alcotest.(check string) "steal-parent row" "steal-parent (effects)"
    (List.nth rows 4).R.Table2.version;
  let serial = List.nth rows 5 in
  Alcotest.(check string) "serial last" "serial" serial.R.Table2.version;
  Alcotest.(check (float 0.0)) "serial zero overhead" 0.0
    serial.R.Table2.ns_per_task;
  List.iter
    (fun r -> Alcotest.(check bool) "time positive" true (r.R.Table2.seconds > 0.0))
    rows

let test_table3_structure () =
  let rows = R.Table3.compute ~leaf_cycles:50_000 () in
  Alcotest.(check int) "four systems" 4 (List.length rows);
  List.iter
    (fun r ->
      let costs = List.map snd r.R.Table3.steal_cost in
      (match costs with
      | [ c2; c4; c8 ] ->
          Alcotest.(check bool)
            (r.R.Table3.system ^ " grows with processors")
            true
            (c2 < c4 && c4 < c8)
      | _ -> Alcotest.fail "expected three processor counts");
      Alcotest.(check bool) "inlined range" true
        (r.R.Table3.inlined_lo <= r.R.Table3.inlined_hi))
    rows;
  let cost_of name =
    let r = List.find (fun r -> r.R.Table3.system = name) rows in
    List.assoc 2 r.R.Table3.steal_cost
  in
  Alcotest.(check bool) "Wool steals cheapest" true
    (cost_of "Wool" < cost_of "TBB" && cost_of "Wool" < cost_of "Cilk++"
   && cost_of "Wool" < cost_of "OpenMP");
  Alcotest.(check bool) "Cilk++ steals dearest" true
    (cost_of "Cilk++" > cost_of "TBB" && cost_of "Cilk++" > cost_of "OpenMP")

let test_table4_structure () =
  let rows = R.Table4.compute ~n:32 ~reps:4 () in
  Alcotest.(check int) "three systems" 3 (List.length rows);
  List.iter
    (fun r ->
      List.iter
        (fun (p, cell) ->
          Alcotest.(check bool) "modeled within (0,p]" true
            (cell.R.Table4.modeled > 0.0
            && cell.R.Table4.modeled <= float_of_int p +. 0.5);
          Alcotest.(check bool) "measured within (0,p]" true
            (cell.R.Table4.measured > 0.0
            && cell.R.Table4.measured <= float_of_int p +. 0.5))
        r.R.Table4.by_procs)
    rows

let test_fig4_structure () =
  let panels = R.Fig4.compute ~heights:[ (6, 4) ] () in
  match panels with
  | [ p ] ->
      Alcotest.(check int) "height" 6 p.R.Fig4.height;
      Alcotest.(check int) "four policies" 4 (List.length p.R.Fig4.series);
      List.iter
        (fun (_, pts) -> Alcotest.(check int) "points" 8 (List.length pts))
        p.R.Fig4.series
  | _ -> Alcotest.fail "expected one panel"

let test_fig5_structure () =
  let panels = R.Fig5.compute ~grid:[ W.mm ~reps:2 16 ] () in
  match panels with
  | [ p ] ->
      Alcotest.(check string) "absolute for mm" "absolute" p.R.Fig5.normalization;
      Alcotest.(check int) "four systems" 4 (List.length p.R.Fig5.series)
  | _ -> Alcotest.fail "expected one panel"

let test_fig5_stress_normalization () =
  let panels =
    R.Fig5.compute ~grid:[ W.stress ~reps:2 ~height:4 ~leaf_iters:64 () ] ()
  in
  match panels with
  | [ p ] ->
      Alcotest.(check string) "relative" "vs 1-proc Wool" p.R.Fig5.normalization;
      (* by definition, Wool at p=1 is exactly 1.0 *)
      let wool = List.assoc "Wool" p.R.Fig5.series in
      Alcotest.(check (float 1e-9)) "wool p1 = 1" 1.0 (List.assoc 1.0 wool)
  | _ -> Alcotest.fail "expected one panel"

let test_fig6_structure () =
  let grid = [ W.stress ~reps:2 ~height:5 ~leaf_iters:256 () ] in
  let panels = R.Fig6.compute ~grid ~procs:[ 1; 2 ] () in
  match panels with
  | [ p ] ->
      Alcotest.(check int) "rows" 2 (List.length p.R.Fig6.rows);
      let p1 = List.hd p.R.Fig6.rows in
      Alcotest.(check (float 1e-6)) "1-proc NA normalized to 1" 1.0
        (List.assoc "NA" p1.R.Fig6.by_category);
      Alcotest.(check (float 1e-6)) "1-proc has no stealing" 0.0
        (List.assoc "ST" p1.R.Fig6.by_category)
  | _ -> Alcotest.fail "expected one panel"

let test_space_claim () =
  let rows = R.Space.compute ~sizes:[ 32; 128 ] () in
  Alcotest.(check int) "two sizes" 2 (List.length rows);
  List.iter
    (fun r ->
      let depth name = List.assoc name r.R.Space.depth_by_system in
      (* steal-child pools grow with the loop; steal-parent stays O(1) *)
      Alcotest.(check bool) "wool grows" true
        (depth "Wool(all-public)" > r.R.Space.n / 2);
      Alcotest.(check bool) "tbb grows" true (depth "TBB" > r.R.Space.n / 2);
      Alcotest.(check bool) "cilk constant" true (depth "Cilk++" <= 4))
    rows

let test_ablation_studies () =
  let wl = W.stress ~reps:4 ~height:6 ~leaf_iters:256 () in
  let bj = R.Ablation.blocked_join ~workload:wl () in
  Alcotest.(check int) "three join strategies" 3 (List.length bj.R.Ablation.series);
  let pw = R.Ablation.public_window ~workload:wl () in
  Alcotest.(check int) "six window variants" 6 (List.length pw.R.Ablation.series);
  let vs = R.Ablation.victim_selection ~workload:wl () in
  Alcotest.(check int) "four victim strategies" 4 (List.length vs.R.Ablation.series);
  let ib = R.Ablation.idle_backoff ~workload:wl () in
  Alcotest.(check int) "three backoff flavours"
    (List.length Wool_policy.Backoff.all)
    (List.length ib.R.Ablation.series);
  let sb = R.Ablation.steal_batch ~workload:wl () in
  Alcotest.(check int) "three batch sizes" 3 (List.length sb.R.Ablation.series);
  let nu = R.Ablation.numa ~workload:wl () in
  Alcotest.(check int) "three numa variants" 3 (List.length nu.R.Ablation.series);
  List.iter
    (fun st ->
      List.iter
        (fun sr ->
          List.iter
            (fun (p, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s p%d positive" st.R.Ablation.title
                   sr.R.Ablation.label p)
                true (v > 0.0))
            sr.R.Ablation.speedup_by_p)
        st.R.Ablation.series)
    [ bj; pw; vs; ib; sb; nu ]

let test_gantt () =
  let wl = W.stress ~reps:2 ~height:5 ~leaf_iters:256 () in
  let trace, r = R.Gantt.compute ~workload:wl ~workers:4 () in
  Alcotest.(check int) "workers" 4 (Wool_sim.Trace.workers trace);
  Alcotest.(check bool) "time positive" true (r.Wool_sim.Engine.time > 0);
  Alcotest.(check bool) "worker 0 busy" true
    (Wool_sim.Trace.utilization trace ~worker:0 > 0.3)

let test_check_kernel_matrix () =
  let cells = R.Check_fuzz.kernel_matrix ~workers:2 () in
  (* 7 kernels x 5 schedulers (the 4 pool modes + cactus) *)
  Alcotest.(check int) "matrix size" 35 (List.length cells);
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        (c.R.Check_fuzz.kernel ^ "/" ^ c.R.Check_fuzz.scheduler)
        [] c.R.Check_fuzz.violations)
    cells

(* -- wool-serve/2 schema: round-trip, v1 compatibility, rejection -- *)

module S = R.Serve_load

let serve_row =
  {
    S.mode = "private";
    arrival = "overload";
    admission = "adaptive";
    offered = 100;
    admitted = 60;
    rejected = 40;
    shed = 0;
    executed = 50;
    expired = 7;
    cancelled = 3;
    p50_ms = 1.5;
    p99_ms = 4.25;
    p999_ms = 6.5;
    throughput = 50.0;
    goodput = 48.0;
    target_ms = 8.0;
    elapsed_s = 1.0;
    violations = [];
  }

let test_serve_json_roundtrip () =
  let body =
    S.to_json ~date:"2026-08-08" ~producers:2 ~workers:2 ~rate_hz:200.
      ~duration_s:1.0 [ serve_row ]
  in
  match S.of_json body with
  | Error msg -> Alcotest.failf "of_json failed: %s" msg
  | Ok rep -> (
      Alcotest.(check string) "schema" "wool-serve/2" rep.S.schema;
      Alcotest.(check string) "date" "2026-08-08" rep.S.date;
      Alcotest.(check int) "rows" 1 (List.length rep.S.rows);
      match rep.S.rows with
      | [ r ] ->
          Alcotest.(check string) "admission" "adaptive" r.S.admission;
          Alcotest.(check int) "expired" 7 r.S.expired;
          Alcotest.(check int) "cancelled" 3 r.S.cancelled;
          Alcotest.(check (float 1e-9)) "goodput" 48.0 r.S.goodput;
          Alcotest.(check (float 1e-9)) "target" 8.0 r.S.target_ms;
          Alcotest.(check (float 1e-9)) "p99" 4.25 r.S.p99_ms
      | _ -> Alcotest.fail "expected one row")

let test_serve_json_rejects_foreign () =
  (match S.of_json {|{"schema":"wool-serve/99","rows":[]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema version must be rejected");
  (match S.of_json {|{"schema":"wool-bench/1","rows":[]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign document must be rejected");
  (match S.of_json "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be rejected");
  match
    S.of_json
      {|{"schema":"wool-serve/2","date":"d","producers":1,"workers":1,"rate_hz":1,"duration_s":1,"rows":[{"mode":"locked"}]}|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "row with missing fields must be rejected"

module Pg = R.Policy_grid

(* A miniature locality grid must survive the JSON roundtrip exactly,
   compare clean against itself, and report every perturbed cell. *)
let test_policy_grid_json_roundtrip () =
  let g = Pg.compute ~sockets:2 ~workers:[ 4 ] ~height:6 ~leaf_iters:50 () in
  Alcotest.(check int) "3 selectors x 1 scale" 3 (List.length g.Pg.cells);
  (match Pg.of_json (Pg.to_json g) with
  | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg
  | Ok g' ->
      Alcotest.(check (list string)) "roundtrip compares clean" []
        (Pg.compare_grids ~baseline:g ~fresh:g'));
  let perturbed =
    {
      g with
      Pg.cells =
        List.map
          (fun c -> { c with Pg.remote = c.Pg.remote + 1 })
          g.Pg.cells;
    }
  in
  Alcotest.(check int) "every perturbed cell reported" 3
    (List.length (Pg.compare_grids ~baseline:g ~fresh:perturbed));
  match Pg.of_json "{\"schema\":\"bogus/9\"}" with
  | Ok _ -> Alcotest.fail "foreign schema must be rejected"
  | Error _ -> ()

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "registry unique" `Quick test_registry_keys_unique;
        Alcotest.test_case "registry find" `Quick test_registry_find;
        Alcotest.test_case "fmt_k" `Quick test_fmt_k;
        Alcotest.test_case "fig1 shapes" `Slow test_fig1_shapes;
        Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        Alcotest.test_case "table2 runs" `Slow test_table2_runs;
        Alcotest.test_case "table3 structure" `Quick test_table3_structure;
        Alcotest.test_case "table4 structure" `Quick test_table4_structure;
        Alcotest.test_case "fig4 structure" `Quick test_fig4_structure;
        Alcotest.test_case "fig5 structure" `Quick test_fig5_structure;
        Alcotest.test_case "fig5 stress normalization" `Quick
          test_fig5_stress_normalization;
        Alcotest.test_case "fig6 structure" `Quick test_fig6_structure;
        Alcotest.test_case "space claim" `Quick test_space_claim;
        Alcotest.test_case "ablation studies" `Quick test_ablation_studies;
        Alcotest.test_case "gantt" `Quick test_gantt;
        Alcotest.test_case "check kernel matrix" `Slow test_check_kernel_matrix;
        Alcotest.test_case "serve json roundtrip" `Quick
          test_serve_json_roundtrip;
        Alcotest.test_case "serve json rejects foreign" `Quick
          test_serve_json_rejects_foreign;
        Alcotest.test_case "policy grid json roundtrip" `Quick
          test_policy_grid_json_roundtrip;
      ] );
  ]
