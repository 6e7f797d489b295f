(** Table II: optimising inlined tasks — measured on the real runtime.

    A view over the benchmark's single-worker fib cells
    ({!Bench_json.measure}: digest-checked, a fresh pool per repeat,
    each cell after one untimed warm-up run):
    per-worker locks ("base"), atomic exchange on the descriptor state
    ("synchronize on task"), the task-specific join — one row with
    private tasks in the worst (no private) case, which Table II gives
    the same cost and which is the same pool configuration here — and
    private tasks in the best (all private) case. One row more, the
    steal-parent effects runtime ({!Wool_cactus.Cactus}), where every
    spawn captures a fiber, is measured the same way; then the pure
    serial function. The per-task overhead is [(T_1 - T_S) / N_T],
    reported in nanoseconds and in nominal cycles (see
    {!Wool_util.Clock} for the scale). Absolute values are
    machine-specific; the reproduced claim is the ordering and the
    roughly one-order-of-magnitude ladder from locked joins down to
    private tasks. *)

type row = {
  version : string;
  seconds : float;  (** median wall time of one full fib run *)
  ns_per_task : float;
  cycles_per_task : float;
}

val compute : ?size:Exp_common.Spec.size -> ?repeats:int -> unit -> row list
(** Default [size = Std] (fib(22)), [repeats = 3] (medians). Six rows:
    the four Wool rungs, "steal-parent (effects)", and "serial" last
    with zero overhead by construction. Raises [Failure] if any run
    disagrees with the serial digest. *)

val run : unit -> unit
