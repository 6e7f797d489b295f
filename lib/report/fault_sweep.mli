(** Seeded fault-injection stress runner ("woolbench faults").

    Sweeps {!Wool_fault.Plan.random} plans over every scheduler mode and
    the steal-policy grid, runs a fork-join fib under each combination,
    and holds the runtime to its protocol invariants afterwards
    ({!Wool.Invariants.check}): every descriptor EMPTY, deques drained,
    steal counters balanced, result correct. Plans with exception rules
    also prove the pool survives an injected task exception and is
    reusable for retries. *)

type row = {
  plan : Wool_fault.Plan.t;
  mode : Wool.mode;
  policy : Wool_policy.t;
  elapsed_ns : float;
      (** wall time of the whole episode, retries included *)
  runs : int;  (** total runs on the pool (1 + exception retries) *)
  exn_runs : int;  (** runs that ended in [Wool_fault.Injected] *)
  fires : int;  (** total fault fires, all sites and workers *)
  violations : string list;  (** invariant violations (must be empty) *)
}

val run_one :
  workers:int ->
  mode:Wool.mode ->
  policy:Wool_policy.t ->
  Wool_fault.Plan.t ->
  row
(** One pool, one plan: run (and retry past injected exceptions, each
    retry re-checking quiescence) until a run completes cleanly, then
    check the final invariants and shut down. *)

val sweep :
  ?workers:int -> ?seeds:int -> ?exceptions:bool -> unit -> row list
(** [seeds] (default 20) random plans per mode across all four modes,
    cycling the {!Wool_policy.sweep} grid over the seeds. Defaults:
    4 workers, exception rules included. *)

val print_rows : row list -> int
(** Print the sweep table plus any violations in full; returns the
    number of rows with violations (0 = green). *)

val overhead :
  ?workers:int -> ?arg:int -> ?reps:int -> unit -> (string * float) list
(** Measure the disabled-path cost on fib [arg] (default 30): faults
    absent vs. live-but-empty plan vs. watchdog sampling an otherwise
    untouched pool. Prints a table; returns [(label, median_ns)]. *)
