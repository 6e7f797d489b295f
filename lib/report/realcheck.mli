(** End-to-end verification matrix on the real runtimes.

    Runs every real kernel (fib, stress, mm, ssf, cholesky, nqueens,
    knapsack) against every scheduler the repository implements for real —
    the four Wool pool modes plus the steal-parent effects runtime — with
    multiple workers, verifies each result against the serial computation,
    and reports wall time and steal counts. This is the "does the whole
    stack actually work" experiment; speedups on a single-core container
    are not meaningful and are not the point. *)

type cell = {
  kernel : string;
  scheduler : string;
  ok : bool;
  millis : float;
  spawns : int;
  steals : int;
}

val compute : ?workers:int -> unit -> cell list
(** Default 3 workers. *)

val run : unit -> unit
(** Print the matrix; exits nonzero rows are marked FAIL (none
    expected). *)
