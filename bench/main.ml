(* Benchmark harness: regenerates every table and figure of the paper and
   then runs one Bechamel micro-benchmark group per table/figure.

   Part 1 prints the full reproduction (the same output as
   `woolbench all`): Table I, Table II (measured on the real runtime),
   Table III, Table IV, and Figures 1, 4, 5 and 6.

   Part 2 measures, with Bechamel's OLS estimator, the cost of the core
   operation behind each experiment: real spawn/join ladders for Table II,
   simulated steal micro-benchmarks for Table III, and the end-to-end
   regeneration kernels (scaled down) for the figures. Run with
   WOOL_BENCH_ONLY=micro or =tables to restrict to one part. *)

open Bechamel
open Toolkit

module E = Wool_sim.Engine
module P = Wool_sim.Policy
module W = Wool_workloads.Workload
module F = Wool_workloads.Fib

(* ---- Part 2: one Test.make group per table/figure ---- *)

(* Table II: per-task cost of spawn+join on the real runtime, one worker,
   for each rung of the synchronisation ladder. *)
let table2_group =
  let mk name mode publicity =
    let pool =
      Wool.create
        ~config:(Wool.Config.make ~workers:1 ~mode ~publicity ())
        ()
    in
    Test.make ~name (Staged.stage (fun () -> Wool.run pool (fun ctx -> F.wool ctx 15)))
  in
  Test.make_grouped ~name:"table2.real-inline"
    [
      mk "locked" Wool.Locked Wool.All_public;
      mk "swap-generic" Wool.Swap_generic Wool.All_public;
      mk "private(none)" Wool.Private Wool.All_public;
      mk "private(all)" Wool.Private Wool.All_private;
      Test.make ~name:"serial" (Staged.stage (fun () -> F.serial 15));
      mk "chase-lev" Wool.Clev Wool.All_public;
      (let module C = Wool_cactus.Cactus in
       let pool = C.create ~workers:1 () in
       let rec fib ctx n =
         if n < 2 then n
         else begin
           let a = C.promise () and b = C.promise () in
           C.spawn_into ctx a (fun ctx -> fib ctx (n - 1));
           C.spawn_into ctx b (fun ctx -> fib ctx (n - 2));
           C.sync ctx;
           C.read a + C.read b
         end
       in
       (* steal-parent: every spawn allocates a fiber — the moral analogue
          of Cilk++'s cactus-stack frames taxing every call (sec. IV-D1) *)
       Test.make ~name:"steal-parent (effects)"
         (Staged.stage (fun () -> C.run pool (fun ctx -> fib ctx 15))));
    ]

(* Table III: the 2^k-leaves-on-2^k-processors steal micro-benchmark in the
   simulator, per system. *)
let table3_group =
  let tree = Wool_workloads.Stress.tree ~height:2 ~leaf_iters:25_000 in
  let mk (pol : P.t) =
    Test.make ~name:pol.P.name
      (Staged.stage (fun () -> E.run ~policy:pol ~workers:4 tree))
  in
  Test.make_grouped ~name:"table3.steal-micro"
    (List.map mk [ P.wool; P.cilk; P.tbb; P.openmp_tasks ])

(* Figure 1: simulated fib under each system (scaled input). *)
let fig1_group =
  let root = W.root (W.fib ~reps:1 18) in
  let mk (pol : P.t) =
    Test.make ~name:pol.P.name
      (Staged.stage (fun () -> E.run ~policy:pol ~workers:8 root))
  in
  Test.make_grouped ~name:"fig1.fib-sim"
    (List.map mk [ P.wool; P.cilk; P.tbb; P.openmp_tasks ])

(* Figure 4: the locking-ladder policies on a small stress workload. *)
let fig4_group =
  let root = W.root (W.stress ~reps:4 ~height:6 ~leaf_iters:256 ()) in
  let mk (pol : P.t) =
    Test.make ~name:pol.P.name
      (Staged.stage (fun () -> E.run ~policy:pol ~workers:4 root))
  in
  Test.make_grouped ~name:"fig4.lock-ladder"
    (List.map mk [ P.lock_base; P.lock_peek; P.lock_trylock; P.nolock ])

(* Figure 5: one representative application panel per family. *)
let fig5_group =
  let mk name root (pol : P.t) =
    Test.make ~name
      (Staged.stage (fun () -> E.run ~policy:pol ~workers:4 root))
  in
  let mm = W.root (W.mm ~reps:2 32) in
  let ssf = W.root (W.ssf ~reps:2 9) in
  let chol = W.root (W.cholesky ~reps:1 ~n:60 ~nz:200 ()) in
  Test.make_grouped ~name:"fig5.applications"
    [
      mk "mm/wool" mm P.wool;
      mk "mm/cilk" mm P.cilk;
      mk "ssf/wool" ssf P.wool;
      mk "ssf/tbb" ssf P.tbb;
      mk "cholesky/wool" chol P.wool;
      mk "cholesky/openmp" chol P.openmp_tasks;
    ]

(* Figure 6: breakdown accounting overhead (instrumented run). *)
let fig6_group =
  let root = W.root (W.stress ~reps:2 ~height:6 ~leaf_iters:256 ()) in
  Test.make_grouped ~name:"fig6.breakdown"
    [
      Test.make ~name:"wool-p4-instrumented"
        (Staged.stage (fun () -> E.run ~policy:P.wool ~workers:4 root));
    ]

(* Table I: the analyses (span under both overhead models, granularity). *)
let table1_group =
  let region = Wool_workloads.Stress.tree ~height:8 ~leaf_iters:256 in
  Test.make_grouped ~name:"table1.analysis"
    [
      Test.make ~name:"span-free"
        (Staged.stage (fun () -> Wool_metrics.Span.span ~overhead:0 region));
      Test.make ~name:"span-2000"
        (Staged.stage (fun () -> Wool_metrics.Span.span ~overhead:2000 region));
      Test.make ~name:"granularity"
        (Staged.stage (fun () ->
             Wool_metrics.Granularity.task_granularity region));
    ]

(* Table IV: the analytic model evaluation. *)
let table4_group =
  Test.make_grouped ~name:"table4.model"
    [
      Test.make ~name:"model-eval"
        (Staged.stage (fun () ->
             let w = 1_000_000.0 and c2 = 2200.0 and cp = 6800.0 in
             let sp = 17.0 and p = 8.0 in
             w /. (cp +. ((w +. (2.0 *. (sp -. (p -. 1.0)) *. c2)) /. p))));
    ]

let all_groups =
  [
    table1_group; table2_group; table3_group; table4_group; fig1_group;
    fig4_group; fig5_group; fig6_group;
  ]

let run_micro () =
  print_endline "=== Bechamel micro-benchmarks (one group per table/figure) ===";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let t =
    Wool_util.Table.create ~title:"OLS estimates"
      ~header:[ "benchmark"; "ns/run"; "r^2" ]
      ()
  in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] group in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
      in
      List.iter
        (fun (name, ols) ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%.1f" e
            | Some [] | None -> "-"
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "-"
          in
          Wool_util.Table.add_row t [ name; est; r2 ])
        (List.sort compare rows))
    all_groups;
  Wool_util.Table.print t

let () =
  let only = Sys.getenv_opt "WOOL_BENCH_ONLY" in
  if only <> Some "micro" then begin
    print_endline "=== Full reproduction: every table and figure ===";
    Wool_report.Registry.run_all ()
  end;
  if only <> Some "tables" then run_micro ()
