(** Trace-consistency oracle: validates the per-worker event rings of a
    quiescent pool against its counter totals (accounting) and against
    themselves (steal/spawn/join multiplicity causality over recycled
    descriptor indices — see oracle.ml for why timestamps cannot be
    used). *)

val check_events :
  counts:(Wool_trace.Event.tag * int) list ->
  dropped:int ->
  Wool_trace.Event.t array array ->
  string list
(** Human-readable violations, [[]] when clean. [counts] pairs each
    counted tag with its counter: the rings must hold exactly that many
    events of the tag. The per-descriptor causality checks apply to both
    task-pool shapes; a stolen join that names no thief ([b = -1], as a
    queued pool's do) is left out of the join half. When [dropped > 0]
    the stream is incomplete and nothing is checked. *)
