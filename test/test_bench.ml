(* The benchmark harness: JSON schema round-trip and the regression
   comparator. The timed paths run on Tiny inputs — correctness of the
   plumbing, not of the numbers, is what is under test here. *)

module B = Wool_report.Bench_json
module Spec = Wool_report.Exp_common.Spec

let stat v =
  {
    B.n = 3;
    mean = v;
    median = v;
    stddev = 0.5;
    min = v -. 1.;
    max = v +. 1.;
    p10 = v -. 0.5;
    p90 = v +. 5.;
    p99 = v +. 8.;
    p999 = v +. 9.;
  }

let mk_run ?(mode = "private") ?(publicity = "default") ?(workers = 2)
    ?(median = 100.) ?(g_l_ns = 250.) () =
  {
    B.workload = "fib";
    descr = "fib(12)";
    mode;
    publicity;
    workers;
    repeats = 3;
    ok = true;
    serial_ns = stat 1000.;
    parallel_ns = stat median;
    overhead = median /. 1000.;
    speedup = 1000. /. median;
    spawns = 464;
    steals = 4;
    g_t_ns = 2.155;
    g_l_ns;
  }

let mk_report runs =
  { B.schema = B.schema_version; date = "2026-08-06"; size = "tiny"; ghz = 1.0;
    runs }

let test_roundtrip_synthetic () =
  let rep =
    mk_report
      [
        mk_run ();
        mk_run ~mode:"locked" ~median:250. ();
        (* no steals: G_L is infinite and must survive the round trip *)
        mk_run ~workers:1 ~publicity:"all-private" ~g_l_ns:infinity ();
      ]
  in
  match B.of_json (B.to_json rep) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok rep' ->
      (* the printer's float rendering is lossless, so equality is exact *)
      Alcotest.(check bool) "exact round trip" true (rep = rep')

let contains = Test_util.contains

let test_infinity_encodes_as_null () =
  let rep = mk_report [ mk_run ~g_l_ns:infinity () ] in
  let js = B.to_json rep in
  Alcotest.(check bool) "null in document" true (contains js "\"g_l_ns\":null");
  match B.of_json js with
  | Error e -> Alcotest.fail e
  | Ok rep' -> (
      match rep'.B.runs with
      | [ r ] -> Alcotest.(check bool) "infinite again" true (r.B.g_l_ns = infinity)
      | _ -> Alcotest.fail "run count changed")

let test_schema_version_rejected () =
  let rep = { (mk_report [ mk_run () ]) with B.schema = "wool-bench/0" } in
  match B.of_json (B.to_json rep) with
  | Ok _ -> Alcotest.fail "accepted a foreign schema version"
  | Error e ->
      Alcotest.(check bool) "names the expected schema" true
        (contains e B.schema_version)

let test_v1_document_rejected () =
  (* a wool-bench/1 baseline (no p99/p999) is no longer read: the gate
     compares against wool-bench/2 snapshots only *)
  let v1_stat =
    {|{"n":3,"mean":100,"median":100,"stddev":0.5,"min":99,"max":101,"p10":99.5,"p90":105}|}
  in
  let doc =
    Printf.sprintf
      {|{"schema":"wool-bench/1","date":"2026-08-06","size":"tiny","ghz":1.0,"runs":[{"workload":"fib","descr":"fib(12)","mode":"private","publicity":"default","workers":2,"repeats":3,"ok":true,"serial_ns":%s,"parallel_ns":%s,"overhead":0.1,"speedup":10,"spawns":464,"steals":4,"g_t_ns":2.155,"g_l_ns":250}]}|}
      v1_stat v1_stat
  in
  match B.of_json doc with
  | Ok _ -> Alcotest.fail "accepted a wool-bench/1 document"
  | Error e ->
      Alcotest.(check bool) "names the expected schema" true
        (contains e B.schema_version)

let test_compare_flags_only_real_regressions () =
  (* baseline cell: median 100, p90 105; the rule is median' > p90 AND
     median' > 1.10 x median *)
  let baseline = mk_report [ mk_run ~median:100. () ] in
  let case median = mk_report [ mk_run ~median () ] in
  let n median = List.length (B.compare_reports ~baseline (case median)) in
  Alcotest.(check int) "equal is clean" 0 (n 100.);
  Alcotest.(check int) "inside the noise band (under p90)" 0 (n 104.);
  Alcotest.(check int) "over p90 but within 10%" 0 (n 108.);
  Alcotest.(check int) "over p90 and over 10%" 1 (n 116.);
  (* a different cell key never matches the baseline *)
  Alcotest.(check int) "unmatched cell skipped" 0
    (List.length
       (B.compare_reports ~baseline
          (mk_report [ mk_run ~workers:4 ~median:500. () ])));
  (* a legacy-spelled baseline cell still matches its canonical successor *)
  Alcotest.(check int) "legacy mode spelling matches" 1
    (List.length
       (B.compare_reports ~drift:1.0
          ~baseline:(mk_report [ mk_run ~mode:"chase-lev" ~median:100. () ])
          (mk_report [ mk_run ~mode:"clev" ~median:150. () ])))

let test_compare_ratio () =
  let baseline = mk_report [ mk_run ~median:100. () ] in
  match B.compare_reports ~baseline (mk_report [ mk_run ~median:150. () ]) with
  | [ r ] ->
      Alcotest.(check (float 1e-9)) "ratio" 1.5 r.B.r_ratio;
      Alcotest.(check (float 1e-9)) "baseline median" 100.
        r.B.r_baseline.B.parallel_ns.B.median
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_compare_drift_correction () =
  (* six cells with distinct keys *)
  let keys = [ ("private", 1); ("private", 2); ("locked", 1);
               ("locked", 2); ("clev", 1); ("clev", 2) ]
  in
  let report_at f =
    mk_report
      (List.map (fun (mode, workers) -> mk_run ~mode ~workers ~median:(f mode workers) ()) keys)
  in
  let baseline = report_at (fun _ _ -> 100.) in
  (* the whole matrix 1.30x slower: machine drift, not a regression —
     without the correction every cell would be flagged *)
  let drifted = report_at (fun _ _ -> 130.) in
  Alcotest.(check (float 1e-9)) "drift estimated" 1.30
    (B.drift_ratio ~baseline drifted);
  Alcotest.(check int) "uniform shift is clean" 0
    (List.length (B.compare_reports ~baseline drifted));
  (* one cell 1.5x slower on an otherwise steady machine: flagged *)
  let one_bad =
    report_at (fun mode workers ->
        if mode = "clev" && workers = 2 then 150. else 100.)
  in
  (match B.compare_reports ~baseline one_bad with
  | [ r ] ->
      Alcotest.(check string) "the regressed cell" "clev" r.B.r_run.B.mode;
      Alcotest.(check (float 1e-9)) "its ratio" 1.5 r.B.r_ratio
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* the same bad cell on a drifted machine: still the only one flagged *)
  let drifted_one_bad =
    report_at (fun mode workers ->
        if mode = "clev" && workers = 2 then 195. else 130.)
  in
  match B.compare_reports ~baseline drifted_one_bad with
  | [ r ] -> Alcotest.(check string) "still flagged" "clev" r.B.r_run.B.mode
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_measure_tiny_live () =
  (* one real measurement on the Tiny size: digests check out (ok), the
     matrix has the expected cells, and the emitted file re-reads *)
  let rep = B.measure ~size:Spec.Tiny ~workers:[ 1 ] ~repeats:2
      ~date:"2026-08-06" [ "fib" ]
  in
  (* 4 modes x 1 worker count + the 2 publicity cells *)
  Alcotest.(check int) "cells" 6 (List.length rep.B.runs);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.B.mode ^ " digest ok") true r.B.ok;
      Alcotest.(check bool) (r.B.mode ^ " spawned") true (r.B.spawns > 0))
    rep.B.runs;
  let file = Filename.temp_file "wool-bench-test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      B.write_file file rep;
      match B.read_file file with
      | Error e -> Alcotest.fail e
      | Ok rep' ->
          Alcotest.(check bool) "file round trip" true (rep = rep');
          (* self-comparison can never regress *)
          Alcotest.(check int) "self compare clean" 0
            (List.length (B.compare_reports ~baseline:rep' rep)))

(* The committed snapshots predate the retirement of the relaxed modes
   and of task_specific, and still hold their rows. They must keep
   parsing, and a report over the four remaining modes must compare
   cleanly against them in either direction: the retired cells match
   nothing and are skipped, never raised. *)
let retired = [ "ws_mult"; "lowsync"; "task_specific" ]

let test_committed_snapshots_readable () =
  let base =
    match B.read_file "../BENCH_2026-08-08.json" with
    | Ok r -> r
    | Error e -> Alcotest.failf "BENCH_2026-08-08.json: %s" e
  in
  let live, old =
    List.partition (fun (r : B.run) -> Wool.Mode.of_name r.mode <> None)
      base.B.runs
  in
  Alcotest.(check bool) "retired cells present" true (old <> []);
  List.iter
    (fun (r : B.run) ->
      Alcotest.(check bool) (r.mode ^ " is a retired mode") true
        (List.mem r.mode retired))
    old;
  let restricted = { base with B.runs = live } in
  Alcotest.(check int) "restricted vs full: no regressions" 0
    (List.length (B.compare_reports ~baseline:base restricted));
  Alcotest.(check int) "full vs restricted: no regressions" 0
    (List.length (B.compare_reports ~baseline:restricted base));
  let serve =
    In_channel.with_open_bin "../SERVE_2026-08-08.json" In_channel.input_all
  in
  match Wool_report.Serve_load.of_json serve with
  | Error e -> Alcotest.failf "SERVE_2026-08-08.json: %s" e
  | Ok rep ->
      let modes =
        List.sort_uniq compare
          (List.map (fun r -> r.Wool_report.Serve_load.mode) rep.rows)
      in
      Alcotest.(check (list string))
        "serve rows cover the four modes and the three retired ones"
        (List.sort compare (retired @ List.map Wool.Mode.name Wool.Mode.all))
        modes

(* The printer keeps every committed document's values: each snapshot
   decodes, re-encodes and decodes to an equal value. *)
let test_committed_snapshots_reencode () =
  let read name = In_channel.with_open_bin ("../" ^ name) In_channel.input_all in
  let same name decode encode =
    match decode (read name) with
    | Error e -> Alcotest.failf "%s: %s" name e
    | Ok v -> (
        match decode (encode v) with
        | Error e -> Alcotest.failf "%s re-encoded: %s" name e
        | Ok v' -> Alcotest.(check bool) (name ^ " re-encodes equal") true (v = v'))
  in
  same "BENCH_2026-08-08.json" B.of_json B.to_json;
  let module S = Wool_report.Serve_load in
  same "SERVE_2026-08-08.json" S.of_json (fun (r : S.report) ->
      S.to_json ~date:r.date ~producers:r.producers ~workers:r.workers
        ~rate_hz:r.rate_hz ~duration_s:r.duration_s r.rows);
  let module Pg = Wool_report.Policy_grid in
  same "POLICY_GRID.json" Pg.of_json Pg.to_json

let suite =
  [
    ( "bench",
      [
        Alcotest.test_case "round trip" `Quick test_roundtrip_synthetic;
        Alcotest.test_case "infinity as null" `Quick
          test_infinity_encodes_as_null;
        Alcotest.test_case "schema version" `Quick test_schema_version_rejected;
        Alcotest.test_case "v1 document rejected" `Quick
          test_v1_document_rejected;
        Alcotest.test_case "compare rule" `Quick
          test_compare_flags_only_real_regressions;
        Alcotest.test_case "compare ratio" `Quick test_compare_ratio;
        Alcotest.test_case "compare drift correction" `Quick
          test_compare_drift_correction;
        Alcotest.test_case "measure tiny" `Slow test_measure_tiny_live;
        Alcotest.test_case "committed snapshots re-encode" `Quick
          test_committed_snapshots_reencode;
        Alcotest.test_case "committed snapshots readable" `Quick
          test_committed_snapshots_readable;
      ] );
  ]
