(** Open-loop latency-SLO load generator ("woolbench serve").

    External producer domains (never pool workers) submit jobs into a
    server-mode pool through {!Wool.Submit} at scheduled Poisson arrival
    times — sustained, bursty, and overloaded — across all scheduler
    modes. The loop is open: the arrival process never waits for the
    system, and a job's latency is measured from its {e scheduled}
    arrival, so overload shows up as tail latency instead of being
    silently absorbed by a slowed-down producer (no coordinated
    omission).

    Sustained and bursty cells run under [Reject] admission, keeping
    producers non-blocking. The [Overload] arrival offers ~1.3x the
    pool's service capacity with a per-job deadline (8 nominal service
    times; the cell's p99 sojourn target is twice that, leaving half
    the target for in-service dilation) and runs twice per mode: under
    [Block] admission (producers park on the full lane, queued jobs go
    stale and expire at dequeue) and under [Adaptive] admission (the
    controller sheds at the door when the sojourn-wait EWMA crosses a
    quarter of the deadline, so admitted jobs clear the lane with most
    of their budget unspent). Every 32nd overload submission carries a
    pre-cancelled token, exercising the cancelled column of the ledger.
    The report pairs the ingress verdict counters with sojourn
    percentiles and goodput (completions inside the deadline per
    second). *)

val schema_version : string
(** ["wool-serve/2"]. *)

type arrival = Sustained | Bursty | Overload

val arrival_name : arrival -> string

(** One (mode, arrival process, admission policy) cell. *)
type row = {
  mode : string;
  arrival : string;
  admission : string;  (** admission policy the cell ran under *)
  offered : int;  (** submissions attempted (ingress [submitted]) *)
  admitted : int;
  rejected : int;
  shed : int;
  executed : int;
  expired : int;  (** dropped at dequeue: deadline already passed *)
  cancelled : int;  (** dropped at dequeue: token set before the run *)
  p50_ms : float;  (** sojourn time: scheduled arrival to completion *)
  p99_ms : float;
  p999_ms : float;
  throughput : float;  (** executed jobs per second of wall clock *)
  goodput : float;
      (** completions inside the per-job deadline per second; equals
          [throughput] for cells without deadlines *)
  target_ms : float;
      (** p99 sojourn target: twice the per-job deadline (0 = the cell
          has no deadline) *)
  elapsed_s : float;
  violations : string list;  (** {!Wool.Invariants.check}, post-quiesce *)
}

val measure :
  ?producers:int ->
  ?workers:int ->
  ?rate_hz:float ->
  ?duration_s:float ->
  ?lane_capacity:int ->
  ?service_spins:int ->
  ?arrivals:arrival list ->
  ?seed:int ->
  unit ->
  row list
(** Run the serve matrix: [producers] (default 2) domains offering
    [rate_hz] (default 200) jobs/s in aggregate for [duration_s]
    (default 1.0) into a [workers]-domain (default 2) server pool with
    one [lane_capacity]-slot lane (default 64); sustained/bursty jobs
    spin [service_spins] iterations (default 2000), overload cells
    derive their own service time and rate (4x [rate_hz]) from a spin
    calibration. [arrivals] (default all three) filters the arrival
    patterns — each mode runs one cell per matching matrix entry, and
    [Overload] contributes two (Adaptive and Block). Raises
    [Invalid_argument] on non-positive parameters or an empty
    [arrivals]. *)

(** A parsed serve document. *)
type report = {
  schema : string;
  date : string;
  producers : int;
  workers : int;
  rate_hz : float;
  duration_s : float;
  rows : row list;
}

val to_json :
  date:string ->
  producers:int ->
  workers:int ->
  rate_hz:float ->
  duration_s:float ->
  row list ->
  string
(** Render as a compact wool-serve/2 document
    ({!Wool_trace.Json.to_string}; an infinite latency prints as
    [null]). *)

val of_json : string -> (report, string) result
(** Parse a wool-serve/2 document. Other schemas and missing fields
    are [Error]. *)

val print_rows : row list -> int
(** Print the table and any invariant violations; returns the number of
    rows with violations. *)

val default_out : date:string -> string
(** [SERVE_<date>.json]. *)

val run :
  ?producers:int ->
  ?workers:int ->
  ?rate_hz:float ->
  ?duration_s:float ->
  ?lane_capacity:int ->
  ?service_spins:int ->
  ?arrivals:arrival list ->
  ?seed:int ->
  ?out:string ->
  ?check:bool ->
  date:string ->
  unit ->
  int
(** CLI driver: measure, print, write [out] (default {!default_out});
    with [check], re-read the file and re-parse it with {!of_json}.
    Returns the number of rows with invariant violations (0 = clean). *)
