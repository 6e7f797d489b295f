(** Reproducible benchmark harness ("woolbench bench <workload|all>").

    Runs {!Exp_common.Spec} workloads across worker counts and all four
    scheduler modes ({!Wool.Mode.all}) on the real runtime, computes
    Table II-style single-worker spawn/join
    overheads (including the [All_private] vs [All_public] publicity
    split in [Private] mode), speedups, steal counts and measured
    [G_T]/[G_L], and emits a schema-stable [BENCH_<date>.json] (schema
    {!schema_version}, parseable with {!Wool_trace.Json}). [--modes]
    restricts the sweep to a subset (e.g. two modes without the full
    matrix). [--compare old.json] re-reads a
    committed baseline, divides out the whole-matrix machine drift
    (median new/old ratio over all shared cells), and flags runs whose
    drift-corrected median lands beyond the baseline's own noise band
    ([p90] + 10% over the median). *)

val schema_version : string
(** ["wool-bench/2"]; bumped on any field change. v2 added the tail
    percentiles [p99]/[p999] to {!stat}. *)

(** Summary of one timed sample set, in nanoseconds. *)
type stat = {
  n : int;
  mean : float;
  median : float;  (** = p50 *)
  stddev : float;
  min : float;
  max : float;
  p10 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

val publicity_name : Wool.publicity -> string
(** ["all-private"], ["all-public"], ["adaptive-4"], as cells store it. *)

(** One (workload, mode, publicity, workers) cell. *)
type run = {
  workload : string;
  descr : string;  (** e.g. ["fib(22)"] *)
  mode : string;  (** a canonical {!Wool.Mode.name}, e.g. ["locked"],
                      ["swap_generic"], ["clev"]; older baselines'
                      hyphenated spellings are re-parsed via
                      {!Wool.Mode.of_name}, and the retired
                      ["ws_mult"]/["lowsync"] cells they hold parse but
                      match nothing in a new report *)
  publicity : string;
      (** ["default"] for the mode sweep; ["all-private"] /
          ["all-public"] for the single-worker publicity split *)
  workers : int;
  repeats : int;
  ok : bool;  (** every parallel digest matched the serial digest *)
  serial_ns : stat;
  parallel_ns : stat;
  overhead : float;  (** parallel median / serial median (Table II) *)
  speedup : float;  (** serial median / parallel median *)
  spawns : int;  (** from the last repeat's {!Wool.Stats.aggregate} *)
  steals : int;
  g_t_ns : float;  (** serial median / spawns *)
  g_l_ns : float;  (** serial median / steals; [infinity] if none *)
}

type report = {
  schema : string;
  date : string;
  size : string;  (** ["std" | "tiny"] *)
  ghz : float;  (** {!Wool_util.Clock.ghz} at measurement time *)
  runs : run list;
}

val measure :
  ?size:Exp_common.Spec.size ->
  ?workers:int list ->
  ?repeats:int ->
  ?warmup:int ->
  ?mode_filter:Wool.Mode.t list ->
  date:string ->
  string list ->
  report
(** [measure ~date names] benches each named workload: the selected
    modes (default all four) at every worker count (default [[1; 2; 4]],
    [repeats] = 3 timed pool runs per cell, after [warmup] = 0 untimed
    ones, a fresh pool each), plus the two publicity cells when
    [Private] is selected. Raises [Failure] on an unknown name,
    [Invalid_argument] on an empty mode filter, an empty or non-positive
    worker list, [repeats < 1] or [warmup < 0]. *)

val to_json : report -> string
(** Render as compact JSON ({!Wool_trace.Json.to_string}); an infinite
    float (e.g. [g_l_ns] with no steals) prints as [null]. *)

val of_json : string -> (report, string) result
(** Inverse of {!to_json} ([null] reads back as [infinity]); rejects
    documents whose ["schema"] is not {!schema_version}. *)

val write_file : string -> report -> unit
val read_file : string -> (report, string) result

type regression = {
  r_run : run;
  r_baseline : run;
  r_ratio : float;  (** new median / old median, drift-corrected *)
}

val drift_ratio : baseline:report -> report -> float
(** The whole-matrix re-measure delta: the median of [new/old] parallel
    medians over every cell the two reports share, or [1.0] when they
    share fewer than 4 (too few to tell a machine-wide shift from a
    regressed cell). A uniform shift is the machine (frequency scaling,
    co-tenants), not the scheduler. *)

val compare_reports : ?drift:float -> baseline:report -> report -> regression list
(** Cells are matched on (workload, mode, publicity, workers); a cell
    regresses when its drift-corrected new parallel median is above the
    baseline's [p90] {e and} more than 10% over the baseline median.
    [drift] defaults to {!drift_ratio}; cells absent from the baseline
    are skipped. *)

val print_report : report -> unit

val print_drift_caveat : drift:float -> report -> unit
(** Prints the machine-drift caveat line when [drift] is more than 5%
    away from 1.0 (the argument report is the baseline, for its date). *)

val print_regressions : regression list -> unit

val default_out : date:string -> string
(** [BENCH_<date>.json]. *)

val run :
  ?size:Exp_common.Spec.size ->
  ?workers:int list ->
  ?repeats:int ->
  ?mode_names:string list ->
  ?out:string ->
  ?compare_with:string ->
  date:string ->
  string list ->
  int
(** CLI driver: measure ([[]] or [["all"]] = every tier-1 workload;
    [mode_names] are parsed with {!Wool.Mode.of_name}, default all
    four), print the tables, write [out] (default {!default_out}),
    optionally compare against [compare_with] (printing the drift
    caveat and any drift-corrected regressions), and return the
    regression count (0 when not comparing). Raises [Failure] on
    unknown workloads or modes, digest mismatches, or an unreadable
    baseline. *)
