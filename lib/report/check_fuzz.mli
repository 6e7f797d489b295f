(** Real-runtime correctness ("woolbench check").

    Runs seeded fork-join histories — random spawn trees under random
    mode / worker / publicity / steal-policy combinations, half of them
    under an exception-free fault plan that perturbs protocol timing —
    through the real pool, and validates each against ground truth:
    sequential result, exactly-once task execution,
    {!Wool.Invariants.check}, and the trace-stream oracle
    {!Wool_check.Oracle.check_events}. Also runs the kernel matrix
    (every tier-1 kernel on every real scheduler, verified against
    serial) and fronts the exhaustive {!Wool_check.Scenarios} model
    checker for the CLI. *)

type spec = { id : int; children : spec list }
(** A fork-join workload shape: each node spawns one task per child and
    joins them in LIFO order; its value is its id plus the sum of its
    children. *)

val gen_spec : Wool_util.Rng.t -> budget:int -> spec * int
(** Deterministic random tree of at most [budget] nodes (0-3 children
    per node, depth at most 8); returns the node count actually used. *)

val eval : spec -> int
(** The sequential oracle. *)

type row = {
  seed : int;
  mode : Wool.mode;
  workers : int;
  publicity : Wool.publicity;
  policy : Wool_policy.t;
  faulty : bool;  (** ran under a random (exception-free) fault plan *)
  nodes : int;  (** tasks in the spec tree *)
  stats : Wool.Stats.t;
  elapsed_ns : float;
  violations : string list;  (** oracle violations (must be empty) *)
}

val run_one : seed:int -> row
(** One seeded history: derive workload and configuration from [seed]
    (the mode rotates over consecutive seeds so any window of 4 covers
    all four modes), run it, validate, shut the pool down. *)

val fuzz : ?histories:int -> ?seed0:int -> unit -> row list
(** [histories] (default 100) consecutive seeds starting at [seed0]. *)

val print_rows : row list -> int
(** Print the fuzz table plus any violations in full; returns the
    number of rows with violations (0 = green). *)

(** One kernel on one scheduler. *)
type cell = {
  kernel : string;
  scheduler : string;  (** ["wool/<mode>"] or ["steal-parent"] *)
  violations : string list;
      (** a result differing from serial, and (Wool cells)
          {!Wool.Invariants.check} on the quiescent pool; [[]] = ok *)
  millis : float;
  spawns : int;
  steals : int;
}

val kernel_matrix : ?workers:int -> unit -> cell list
(** Every real kernel (fib, stress, mm, ssf, cholesky, nqueens,
    knapsack) on the four {!Wool.Mode.all} pools and the steal-parent
    effects runtime, [workers] each (default 3), a fresh pool per cell:
    7 x 5 = 35 cells. Speedups on a time-sliced host are not the point;
    this is the "does the whole stack work" check. *)

val print_matrix : cell list -> int
(** Print the matrix plus any violations in full; returns the number of
    cells with violations (0 = green). *)

val cactus_fib : Wool_cactus.Cactus.ctx -> int -> int
(** fib on the steal-parent runtime, every spawn a fiber: the matrix's
    fib port, and Table II's steal-parent row. *)

val run_scenarios : ?max_schedules:int -> unit -> int
(** Exhaustively explore every {!Wool_check.Scenarios.all} scenario,
    print the schedule-count table, and return the number of failures
    (0 = green). *)
