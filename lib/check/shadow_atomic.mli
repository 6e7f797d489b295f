(** Instrumented atomic backend: {!Wool_deque.Atomic_ops.S} over plain
    mutable cells, with every operation routed through {!Sched.exec} so
    the model checker can interleave it. The generated
    [Direct_stack_checked] / [Chase_lev_checked] modules compile the
    production protocol bodies against this. *)

include Wool_deque.Atomic_ops.S

val unscheduled_add : int t -> int -> unit
(** Add with no scheduling point: for counters whose updates commute
    and which no checked thread reads. *)
