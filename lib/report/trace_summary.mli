(** Traced-run report ("woolbench trace <workload>").

    Runs a workload on the real runtime with {!Wool.Config.t}[.trace] on,
    writes the event stream as a Chrome [trace_event] JSON file
    (chrome://tracing / Perfetto loadable, one lane per worker), and
    prints {!Wool_trace.Summary} tables, per-worker {!Wool.Stats},
    measured [G_T]/[G_L], and a side-by-side event-count comparison with
    the simulator's stream for the matching task tree — both sides use the
    shared {!Wool_trace.Event} vocabulary. *)

val workloads : string list
(** Names accepted by {!run} — the {!Exp_common.Spec.names} table, which
    this report (and {!Bench_json}, {!Check_fuzz}, {!Policy_grid})
    consumes. *)

val run :
  ?workers:int -> ?out:string -> ?check:bool -> ?policy:Wool_policy.t ->
  string -> unit
(** [run ~workers ~out ~check name] traces workload [name] (default 4
    workers) and writes the Chrome trace to [out] (default
    ["trace.json"]). [policy] selects the steal policy for both the real
    pool and the simulated counterpart (default: the pool's default,
    random victims with nap-after-64 backoff). With [check] the written
    file is re-read and validated with {!Wool_trace.Json.validate}.
    Raises [Failure] on an unknown workload name, (under [check])
    invalid JSON, or, when no event was dropped, an event count that
    disagrees with its {!Wool.Stats} counter. *)
