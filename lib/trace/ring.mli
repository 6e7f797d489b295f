(** Per-worker fixed-size event ring.

    Exactly one worker writes a ring; {!record} therefore uses plain (non
    atomic) stores and never synchronises with other workers — the whole
    point is that tracing must not perturb the fence-free fast paths it
    observes. A full ring overwrites oldest-first; {!dropped} reports how
    many events were lost that way.

    Readers are expected to snapshot only while the owner is quiescent
    (at [Pool.run] boundaries, or after [Pool.shutdown] for thief rings).
    {!snapshot} nevertheless guards against a concurrently advancing
    writer by re-reading the write cursor and discarding any prefix that
    may have been overwritten mid-copy, so a racy snapshot degrades to a
    shorter (still oldest-first, still well-formed) one rather than a torn
    one. *)

type t

val create : capacity:int -> t
(** [capacity] is rounded up to a power of two; at least 2. Raises
    [Invalid_argument] when no such [int] exists. *)

val capacity : t -> int

val record : t -> ts:int -> tag:Event.tag -> a:int -> b:int -> unit
(** Append an event. Owner-only; no allocation, no atomics. *)

val written : t -> int
(** Total events ever recorded (monotone; not reset by overwrites). *)

val dropped : t -> int
(** [max 0 (written - capacity)] — events lost to overwriting. *)

val snapshot : t -> worker:int -> Event.t array
(** The retained events, oldest first, stamped with [worker]. *)

val clear : t -> unit
(** Owner-only (or quiescent) reset; also resets {!written}. *)
