module E = Wool_sim.Engine
module P = Wool_sim.Policy
module W = Wool_workloads.Workload
module Tt = Wool_ir.Task_tree

let procs = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let default_seed = 42

let run_sim ?(seed = default_seed) policy p wl =
  E.run ~seed ~policy ~workers:p (W.root wl)

let run_loop costs p (wl : W.t) =
  match wl.W.loop_leaves with
  | None -> invalid_arg "Exp_common.run_loop: workload has no loop shape"
  | Some leaves ->
      Wool_sim.Loop_sim.run ~costs ~workers:p ~reps:wl.W.reps ~leaf_work:leaves

let sim_time ?seed (policy : P.t) p (wl : W.t) =
  match (policy.P.flavor, wl.W.loop_leaves) with
  | P.Loop_static, Some _ -> (run_loop policy.P.costs p wl).Wool_sim.Loop_sim.time
  | P.Loop_static, None ->
      invalid_arg "Exp_common.sim_time: Loop_static needs loop leaves"
  | (P.Steal_child _ | P.Steal_parent), _ -> (run_sim ?seed policy p wl).E.time

let absolute_speedup ?seed policy p wl =
  let work = Tt.work (W.root wl) in
  float_of_int work /. float_of_int (sim_time ?seed policy p wl)

let speedup_series ?seed ~baseline policy wl =
  List.map
    (fun p ->
      (float_of_int p, float_of_int baseline /. float_of_int (sim_time ?seed policy p wl)))
    procs

let fmt_k v =
  if v = infinity then "-"
  else if v >= 100_000.0 then Printf.sprintf "%.0fk" (v /. 1000.0)
  else if v >= 1_000.0 then Printf.sprintf "%.1fk" (v /. 1000.0)
  else Printf.sprintf "%.0f" v

(* ---- the shared real-runtime workload table ----

   One spec per tier-1 kernel, consumed by the check kernel matrix,
   trace_summary, the policy grid's real half, and the benchmark harness. These used to be duplicated
   per report module and had drifted in input sizes and digest
   conventions; every consumer now reads this table (and the parameter
   accessors below, for harnesses that need the raw sizes, e.g. the
   steal-parent ports in check_fuzz). *)

module Spec = struct
  type size = Std | Tiny

  let fib_n = function Std -> 22 | Tiny -> 12
  let stress_height = function Std -> 8 | Tiny -> 4
  let stress_leaf_iters = function Std -> 200 | Tiny -> 50
  let nqueens_n = function Std -> 9 | Tiny -> 6
  let mm_n = function Std -> 48 | Tiny -> 12
  let sort_n = function Std -> 20_000 | Tiny -> 512
  let wordcount_n = function Std -> 200_000 | Tiny -> 2_000
  let histogram_n = function Std -> 400_000 | Tiny -> 4_000

  type t = {
    name : string;
    descr : string;  (** e.g. "fib(22)" *)
    serial : unit -> int;
        (** sequential run (for [T_S]) returning a result digest *)
    wool : Wool.ctx -> int;
        (** parallel run; its digest must equal [serial]'s *)
    sim_descr : string;
    sim_tree : unit -> Wool_ir.Task_tree.t;  (** simulator counterpart *)
  }

  let digest_of_matrix m =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc v -> (acc * 31) + int_of_float (v *. 1024.0))
          acc row)
      0 m

  let digest_of_int_array a =
    Array.fold_left (fun acc v -> (acc * 31) + v) 0 a

  let fib size =
    let n = fib_n size in
    {
      name = "fib";
      descr = Printf.sprintf "fib(%d)" n;
      serial = (fun () -> Wool_workloads.Fib.serial n);
      wool = (fun ctx -> Wool_workloads.Fib.wool ctx n);
      sim_descr = Printf.sprintf "fib(%d)" n;
      sim_tree = (fun () -> Wool_workloads.Fib.tree n);
    }

  let stress size =
    let height = stress_height size
    and leaf_iters = stress_leaf_iters size in
    let module S = Wool_workloads.Stress in
    {
      name = "stress";
      descr = Printf.sprintf "stress(height=%d)" height;
      serial =
        (fun () ->
          S.reset_leaf_result ();
          S.serial ~height ~leaf_iters;
          S.leaf_result ());
      wool =
        (fun ctx ->
          S.reset_leaf_result ();
          S.wool ctx ~height ~leaf_iters;
          S.leaf_result ());
      sim_descr = Printf.sprintf "stress(height=%d)" height;
      sim_tree = (fun () -> S.tree ~height ~leaf_iters);
    }

  let nqueens size =
    let n = nqueens_n size in
    {
      name = "nqueens";
      descr = Printf.sprintf "nqueens(%d)" n;
      serial = (fun () -> Wool_workloads.Nqueens.serial n);
      wool = (fun ctx -> Wool_workloads.Nqueens.wool ctx n);
      sim_descr = Printf.sprintf "nqueens(%d)" n;
      sim_tree = (fun () -> Wool_workloads.Nqueens.tree n);
    }

  let mm size =
    let n = mm_n size in
    let a = lazy (Wool_workloads.Mm.random_matrix (Wool_util.Rng.make 11) n) in
    let b = lazy (Wool_workloads.Mm.random_matrix (Wool_util.Rng.make 12) n) in
    {
      name = "mm";
      descr = Printf.sprintf "mm(%dx%d)" n n;
      serial =
        (fun () -> digest_of_matrix (Wool_workloads.Mm.serial (Lazy.force a) (Lazy.force b)));
      wool =
        (fun ctx ->
          digest_of_matrix (Wool_workloads.Mm.wool ctx (Lazy.force a) (Lazy.force b)));
      sim_descr = Printf.sprintf "mm(%dx%d)" n n;
      sim_tree = (fun () -> Wool_workloads.Mm.tree n);
    }

  let sort size =
    let n = sort_n size in
    let input =
      lazy
        (let rng = Wool_util.Rng.make 7 in
         Array.init n (fun _ -> Wool_util.Rng.int rng 1_000_000))
    in
    {
      name = "sort";
      descr = Printf.sprintf "sort(%d)" n;
      serial = (fun () -> digest_of_int_array (Wool_workloads.Sort.serial (Lazy.force input)));
      wool =
        (fun ctx -> digest_of_int_array (Wool_workloads.Sort.wool ctx (Lazy.force input)));
      sim_descr = Printf.sprintf "sort(%d)" n;
      sim_tree = (fun () -> Wool_workloads.Sort.tree n);
    }

  let wordcount size =
    let n = wordcount_n size in
    let text = lazy (Wool_workloads.Wordcount.subject n) in
    {
      name = "wordcount";
      descr = Printf.sprintf "wordcount(%d)" n;
      serial = (fun () -> Wool_workloads.Wordcount.serial (Lazy.force text));
      wool = (fun ctx -> Wool_workloads.Wordcount.wool ctx (Lazy.force text));
      sim_descr = Printf.sprintf "wordcount(%d)" n;
      sim_tree = (fun () -> Wool_workloads.Wordcount.tree n);
    }

  let histogram size =
    let n = histogram_n size in
    let data = lazy (Wool_workloads.Histogram.subject n) in
    {
      name = "histogram";
      descr = Printf.sprintf "histogram(%d)" n;
      serial =
        (fun () ->
          digest_of_int_array (Wool_workloads.Histogram.serial (Lazy.force data)));
      wool =
        (fun ctx ->
          digest_of_int_array (Wool_workloads.Histogram.wool ctx (Lazy.force data)));
      sim_descr = Printf.sprintf "histogram(%d)" n;
      sim_tree = (fun () -> Wool_workloads.Histogram.tree n);
    }

  let all size =
    [
      fib size; stress size; nqueens size; mm size; sort size;
      wordcount size; histogram size;
    ]
  let names = List.map (fun s -> s.name) (all Std)

  let find ?(size = Std) name =
    match List.find_opt (fun s -> s.name = name) (all size) with
    | Some s -> s
    | None ->
        failwith
          (Printf.sprintf "unknown workload %S (expected one of: %s)" name
             (String.concat ", " names))
end
