(** Steal-policy grid ("woolbench policy").

    Simulates a steal-heavy stress workload at production-scale virtual
    core counts (16/32/64 by default) on a multi-socket
    {!Wool_policy.Topology}, once per locality-relevant selector (flat
    random, socket-local, hierarchical), under the committed topology
    cost model ({!Wool_sim.Costs.t.remote_factor_pct} /
    [core_factor_pct]). Prints the grid plus a hierarchical-vs-random
    crossover summary, and serialises to a schema-stable JSON snapshot
    ([POLICY_GRID.json]) that [--compare] diffs {e exactly} — the
    simulator is deterministic, so any drift is a behaviour change.
    {!real_check} is the real-pool half: every victim selector runs a
    digest-checked kernel on an actual pool. *)

val schema_version : string
(** ["wool-policy-grid/1"]. *)

val default_seed : int
val default_sockets : int

val default_workers : int list
(** [[16; 32; 64]]. *)

(** One simulated (core count, selector) point. *)
type cell = {
  workers : int;
  selector : string;  (** {!Wool_policy.Selector.name} *)
  time : int;  (** simulated completion time, virtual cycles *)
  steals : int;
  remote : int;  (** successful cross-socket steals *)
  failed : int;
  hash : string;  (** the run's trace hash in hex — the determinism pin *)
}

type grid = {
  schema : string;
  seed : int;
  sockets : int;
  descr : string;  (** the workload, e.g. ["stress(height=12,...)"] *)
  cells : cell list;
}

val compute :
  ?seed:int -> ?sockets:int -> ?workers:int list -> ?height:int ->
  ?leaf_iters:int -> unit -> grid
(** Run the grid (default: seed 42, 4 sockets, 16/32/64 workers, a
    4096-leaf stress tree with ~200-cycle leaves). *)

val find_cell : grid -> workers:int -> selector:string -> cell option
val print : grid -> unit

val to_json : grid -> string
val of_json : string -> (grid, string) result
val write_file : string -> grid -> unit
val read_file : string -> (grid, string) result

val compare_grids : baseline:grid -> fresh:grid -> string list
(** Cell-exact diff (times, counters, trace hashes); empty means
    bit-for-bit reproduction of the committed snapshot. *)

val real_check : ?workers:int -> unit -> unit
(** The real-runtime half: run the tier-1 fib kernel on an actual pool
    (default 4 workers) once per {!Wool_policy.Selector.all} entry under
    the default backoff, verify each digest against the serial run, and
    print wall time plus the pool's steal, leapfrog-steal, failed-steal
    and spawn counters per selector. Raises [Failure] on a wrong
    result. *)
