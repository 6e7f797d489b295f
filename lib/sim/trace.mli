(** Execution traces: per-worker, per-time-bucket activity for Gantt-style
    rendering of a simulation.

    Because the engine is deterministic, the usual workflow is two-pass:
    run once to learn the completion time, then re-run with a trace sized
    to that horizon and render it. Cycles are attributed to the bucket(s)
    an operation spans; rendering shows each worker as a row whose
    character per bucket is the dominant activity:

    - ['#'] application work (NA), ['l'] leapfrogged work (LA)
    - ['.'] stealing (ST), ['~'] leapfrog waiting (LF)
    - ['s'] startup (TR), [' '] idle *)

type t

val create :
  ?buckets:int -> ?event_capacity:int -> workers:int -> horizon:int ->
  unit -> t
(** [horizon] is the simulated time span covered (cycles); activity beyond
    it lands in the last bucket. Default 100 buckets. [event_capacity]
    (default 65536) bounds the discrete-event ring kept per worker for
    {!events}; overflow drops oldest-first. *)

val record : t -> worker:int -> start:int -> cycles:int -> category:int -> unit
(** Attribute [cycles] of activity of category index [category] (see
    {!Engine.category_index}) beginning at time [start]. Used by the
    engine; normally not called directly. *)

val record_event :
  t -> worker:int -> time:int -> tag:Wool_trace.Event.tag -> a:int ->
  b:int -> unit
(** Log a discrete scheduler event in the vocabulary shared with the real
    runtime ({!Wool_trace.Event}). Timestamps are virtual cycles. Used by
    the engine; normally not called directly. *)

val events : t -> Wool_trace.Event.t array
(** All recorded events merged into one time-sorted stream — the same
    shape {!Wool.trace_events} produces, so simulated and measured
    streams can be summarised, exported and compared with the same
    tooling. *)

val events_dropped : t -> int
(** Events lost to ring overflow, summed over workers. *)

val workers : t -> int
val buckets : t -> int

val dominant : t -> worker:int -> bucket:int -> int option
(** Category index with the most cycles in the bucket, if any. *)

val utilization : t -> worker:int -> float
(** Fraction of the horizon this worker spent on any activity. *)

val render : t -> string
(** The Gantt chart with a legend. *)

val print : t -> unit
