(** Shared helpers for the per-experiment report modules. *)

val procs : int list
(** Processor counts used throughout: 1–8, as in the paper's figures. *)

val default_seed : int

val run_sim :
  ?seed:int -> Wool_sim.Policy.t -> int -> Wool_workloads.Workload.t ->
  Wool_sim.Engine.result
(** Simulate a workload (its full repetition root) on [p] workers. *)

val run_loop :
  Wool_sim.Costs.t -> int -> Wool_workloads.Workload.t ->
  Wool_sim.Loop_sim.result
(** Static work-sharing run; requires the workload to expose loop leaves. *)

val sim_time :
  ?seed:int -> Wool_sim.Policy.t -> int -> Wool_workloads.Workload.t -> int
(** Completion time only, dispatching loop-shaped OpenMP automatically:
    a [Loop_static] policy uses {!run_loop} when the workload has leaves. *)

val absolute_speedup :
  ?seed:int -> Wool_sim.Policy.t -> int -> Wool_workloads.Workload.t -> float
(** Work of the full root divided by simulated completion time — speedup
    over an ideal sequential execution with zero task overhead, the
    normalisation of Figure 1 (left) and Figure 5's cholesky/mm/ssf
    panels. *)

val speedup_series :
  ?seed:int -> baseline:int -> Wool_sim.Policy.t ->
  Wool_workloads.Workload.t -> (float * float) list
(** [(p, baseline / T_p)] over {!procs}. *)

val fmt_k : float -> string
(** Format a cycle count in "k" (thousands) like Table I's G_L columns. *)

(** The shared real-runtime workload table.

    One spec per tier-1 kernel (fib, stress, nqueens, mm, sort,
    wordcount, histogram), consumed
    by the check kernel matrix, trace_summary, the policy grid's real
    half, and the benchmark harness (and through it Table II);
    the per-module copies these replaced had drifted in input sizes and
    digest conventions. *)
module Spec : sig
  type size =
    | Std  (** the report/trace sizes *)
    | Tiny  (** smoke-test sizes: every run well under a second *)

  (* Raw parameters, for harnesses that re-derive a kernel at the shared
     size (e.g. the steal-parent ports in {!Check_fuzz}). *)
  val fib_n : size -> int
  val stress_height : size -> int
  val stress_leaf_iters : size -> int
  val nqueens_n : size -> int
  val mm_n : size -> int
  val sort_n : size -> int
  val wordcount_n : size -> int
  val histogram_n : size -> int

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

  val digest_of_matrix : float array array -> int
  val digest_of_int_array : int array -> int

  val all : size -> t list
  (** The tier-1 set, in canonical order. *)

  val names : string list

  val find : ?size:size -> string -> t
  (** Defaults to [Std]. Raises [Failure] on an unknown name. *)
end
