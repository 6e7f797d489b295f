(** Randomized schedule fuzzing with a sequential oracle ("woolbench
    check").

    Runs seeded fork-join histories — random spawn trees under random
    mode / worker / publicity / steal-policy combinations, half of them
    under an exception-free fault plan that perturbs protocol timing —
    through the real pool, and validates each against ground truth:
    sequential result, exactly-once task execution,
    {!Wool.Invariants.check}, and the trace-stream oracle
    {!Wool_check.Oracle.check_events}. Also fronts the exhaustive
    {!Wool_check.Scenarios} model checker for the CLI. *)

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
    (the mode rotates over consecutive seeds so any window of 5 covers
    all four modes), run it, validate, shut the pool down. *)

val fuzz : ?histories:int -> ?seed0:int -> unit -> row list
(** [histories] (default 100) consecutive seeds starting at [seed0]. *)

val print_rows : row list -> int
(** Print the fuzz table plus any violations in full; returns the
    number of rows with violations (0 = green). *)

val run_scenarios : ?max_schedules:int -> unit -> int
(** Exhaustively explore every {!Wool_check.Scenarios.all} scenario,
    print the schedule-count table, and return the number of failures
    (0 = green). *)
