(** Table II: optimising inlined tasks — measured on the real runtime.

    Single-worker executions of fib with the synchronisation ladder of
    §IV-B: per-worker locks ("base"), atomic exchange on the descriptor
    state ("synchronize on task"), the task-specific join — one row with
    private tasks in the worst (no private) case, which Table II gives the
    same cost and which is the same pool configuration here — and private
    tasks in the best (all private) case, against the pure serial
    function. The per-task overhead is
    [(T_1 - T_S) / N_T], reported in nanoseconds and in nominal cycles
    (see {!Wool_util.Clock} for the scale). Absolute values are
    machine-specific; the reproduced claim is the ordering and the
    roughly one-order-of-magnitude ladder from locked joins down to
    private tasks. *)

type row = {
  version : string;
  seconds : float;  (** median wall time of one full fib run *)
  ns_per_task : float;
  cycles_per_task : float;
}

val compute : ?n:int -> ?repeats:int -> unit -> row list
(** Default [n = 30], [repeats = 3] (medians). The last row is "serial"
    with zero overhead by construction. *)

val run : unit -> unit
