(** Chrome [trace_event] JSON exporter.

    Writes the "JSON object format" understood by [chrome://tracing] and
    Perfetto: one process, one thread lane per worker, every scheduler
    event as a thread-scoped instant with its [a]/[b] operands in [args].
    Timestamps are converted from the event unit (nanoseconds on the real
    runtime, virtual cycles in the simulator) to the format's microseconds
    via [ts_per_us] (default 1000, i.e. nanoseconds). *)

val to_string :
  ?process_name:string -> ?ts_per_us:float -> Event.t array -> string
(** Serialise the events (any order; emitted as given). The result always
    parses under {!Json.parse}. *)

val write_file :
  ?process_name:string -> ?ts_per_us:float -> string -> Event.t array -> unit
(** [write_file path events] writes {!to_string} to [path]. *)
