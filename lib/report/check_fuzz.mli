(** Real-runtime correctness ("woolbench check").

    Runs seeded fork-join histories — random spawn trees under random
    mode / worker / publicity / steal-policy combinations, a third of
    them under a fault plan that perturbs protocol timing and a third
    under one that also injects task exceptions — through the real pool,
    and validates each against ground truth: sequential result,
    exactly-once task execution, {!Wool.Invariants.check} (also after
    every injected exception, on the pool that must then finish a clean
    run), and the trace-stream oracle {!Wool_check.Oracle.check_events}.
    Also runs the kernel matrix (every tier-1 kernel on every real
    scheduler, verified against serial) and fronts the exhaustive
    {!Wool_check.Scenarios} model checker for the CLI. *)

type spec = { id : int; children : spec list }
(** A fork-join workload shape: each node spawns one task per child and
    joins them in LIFO order; its value is its id plus the sum of its
    children. *)

val gen_spec : Wool_util.Rng.t -> budget:int -> spec * int
(** Deterministic random tree of at most [budget] nodes (1-3 children
    at the root, 0-3 below, depth at most 8); returns the node count
    actually used. *)

val eval : spec -> int
(** The sequential oracle. *)

(** The fault plan a history runs under: none, a random exception-free
    {!Wool_fault.Plan.random} (delays and forced steal failures), or
    that plan plus a bounded [Raise_exn] rule at [Spawn] whose rate
    scales to the tree (about two fires per run). *)
type plan_kind = No_faults | Timing | Exceptions

type row = {
  seed : int;
  mode : Wool.mode;
  workers : int;
  publicity : Wool.publicity;
  policy : Wool_policy.t;
  plan : plan_kind;
  nodes : int;  (** tasks in the spec tree *)
  stats : Wool.Stats.t;
  fires : int;  (** fault fires, all sites, workers and runs *)
  exn_runs : int;  (** runs that ended in [Wool_fault.Injected] *)
  elapsed_ns : float;
  violations : string list;  (** oracle violations (must be empty) *)
}

val run_one : seed:int -> row
(** One seeded history: derive workload and configuration from [seed]
    (mode [seed mod 4], plan kind [(seed / 4) mod 3], so any 12
    consecutive seeds give every mode each plan kind once), run it,
    validate, shut the pool down. A run that raises
    [Wool_fault.Injected] is checked and re-run on the same pool, at
    most [2 * workers + 2] runs in all. *)

val fuzz : ?histories:int -> ?seed0:int -> unit -> row list
(** [histories] (default 100) consecutive seeds starting at [seed0]. *)

val print_rows : row list -> int
(** Print the fuzz table (each history's plan kind, fault fires and
    injected-exception runs), the histories per mode that recovered from
    an injected exception, and any violations in full; returns the
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

val in_flight : unit -> string
(** What is running now: the scenario, the kernel cell (kernel and
    scheduler) or the history (seed, mode, plan kind and workers) that
    {!run_scenarios}, {!kernel_matrix} or {!run_one} started last. Safe
    to read from another domain, for a watchdog that names a wedged
    check. *)
