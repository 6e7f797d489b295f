(** The direct task stack (paper Section III-A and III-B).

    A per-worker array of fixed-size task descriptors managed with strict
    stack discipline. The owner pushes and pops at [top] (fully private);
    thieves operate at [bot]. Thief/victim synchronisation happens on each
    descriptor's [state] word — exchange on the owner's join, CAS on steals —
    never on [top]/[bot], so no Dijkstra-style protocol or fences beyond the
    atomics themselves are needed.

    [bot] has no explicit synchronisation: it is implicitly owned by whoever
    holds the task it points at. A thief whose CAS succeeds against a
    recycled descriptor (the delayed-thief ABA of §III-A) detects the
    mismatch by re-reading [bot] and backs off, restoring the state word.

    Private tasks (§III-B): descriptors below the public limit carry
    [task_public] states and cost an atomic exchange to join; descriptors
    above it are private — the owner joins them with a plain load and store,
    and a thief's CAS can never succeed on them. The highest public
    descriptor is the {e trip wire}: stealing at or past it raises the
    owner's publish request flag, and the owner publishes more descriptors
    at its next push/pop. Inlining many public tasks in a row privatises
    the boundary again, making the cut-off revocable in both directions.

    {b Layout.} The record is split cache-consciously: all owner-private
    mutable fields live in one line-padded block; each thief-shared
    atomic ([bot]+steal count, trip index, publish request, the
    unsuccessful-probe count) owns its cache line; and every descriptor's
    state word is individually padded so adjacent descriptors never
    false-share. [bot] and the steal count are packed into one word so a
    successful steal commits both with a single plain store. *)

type 'a t

exception Pool_overflow
(** Raised by {!push} when the stack is at capacity. Raised before any
    slot or window mutation, so the stack is untouched and the spawn can
    be unwound cleanly (the runtime re-exports this as
    [Wool.Pool_overflow]). *)

type publicity =
  | All_private  (** nothing stealable; the Table II best case *)
  | All_public  (** every descriptor public; the Table II worst case *)
  | Adaptive of int
      (** [Adaptive w]: keep a window of [w] public descriptors, grown on
          trip-wire steals and shrunk after runs of inlined public joins *)

val create :
  ?capacity:int -> ?publicity:publicity -> dummy:'a -> unit -> 'a t
(** A stack holding at most [capacity] (default 65536) simultaneous tasks.
    [dummy] fills empty payload cells. Default publicity is [Adaptive 4]. *)

val push : 'a t -> 'a -> unit
(** Spawn: store the payload, then release the descriptor with a state store
    (the write that makes the task stealable is last). Also services pending
    publish requests. Raises {!Pool_overflow} if the stack is full, before
    mutating anything. *)

val depth : 'a t -> int
(** Number of live descriptors ([top]); owner only. *)

val bot_index : 'a t -> int
(** Current [bot] (lowest unstolen descriptor); racy snapshot. *)

val steal_pressure : 'a t -> bool
(** Owner-side hunger poll for lazy splitting: [true] when thieves are
    actively after this stack's work — the trip wire has sprung
    ({e certain} hunger: a steal reached the public frontier), or thief
    activity against this stack (successful steals, failed probes,
    back-offs) advanced since the owner's previous poll. The second
    signal is what lets a lazy splitter bootstrap: a leaf holding all
    remaining work privately gives thieves nothing to steal, so only
    their {e failed} probes betray them. Two atomic loads per poll; never
    [true] on a single-worker pool (no thieves, both signals flat).
    Owner only. *)

val top_payload : 'a t -> 'a
(** The payload of the youngest descriptor — the task the next {!pop}
    joins. Valid until that pop, whatever it returns: a thief never
    clears a payload cell. Owner only; raises [Invalid_argument] on an
    empty stack. *)

(** {2 Join codes}

    {!pop} allocates nothing: it returns one of the negative codes below,
    or the id [>= 0] of the thief that holds the task. The two inline
    codes are the ones below {!stolen_finished}. For every other code,
    the joined descriptor's index is {!depth} after the pop. *)

val inline_private : int
(** The task was still here, private, and is now inlined. *)

val inline_public : int
(** The task was still here, public (the join paid the exchange), and is
    now inlined. *)

val stolen_finished : int
(** The task was stolen and its thief had already finished (state DONE at
    the join): nothing to wait for; finish with {!reclaim}. A code
    [>= 0] instead names the thief: the owner must leapfrog on it until
    {!stolen_done} reports true, then {!reclaim}. *)

val pop : 'a t -> int
(** Join with the most recent push; returns a join code. Spins (with
    [Domain.cpu_relax]) through the transient EMPTY window of an in-flight
    steal; the spin ends as soon as the thief either completes the steal
    or backs off. Owner only; raises [Invalid_argument] on an empty
    stack. *)

val stolen_done : 'a t -> index:int -> bool
(** After a thief-id join code: has the thief marked the descriptor DONE?
    Not meaningful after {!stolen_finished} (the owner's exchange may have
    consumed the DONE state); those joins are complete by construction. *)

val hold : 'a t -> index:int -> unit
(** After a thief-id join code, before the owner runs other tasks while
    it waits: keep its pushes off the stolen slot until {!reclaim}, or
    one could overwrite the thief's DONE. Owner only. *)

val reclaim : 'a t -> index:int -> unit
(** After a stolen join ({!stolen_finished}, or a thief id and
    {!stolen_done}): pop the dead descriptor, moving [bot] down (and
    [top] back to it after {!hold}). Owner only. *)

type 'a steal_result =
  | Stolen_task of 'a * int
      (** Payload and descriptor index; the thief must call
          {!complete_steal} after executing the task. *)
  | Fail  (** nothing stealable (empty, private, or lost race) *)
  | Backoff  (** CAS won against a recycled descriptor; state restored *)

(** Protocol points a fault injector may interfere at, inside one steal:
    - [Pre_cas]: after the state read, before the CAS — the §III-A
      delayed-thief window. Returning [true] aborts the attempt ([Fail]).
    - [Post_cas]: after a winning CAS, before the [bot] re-check.
      Returning [true] forces the restore/back-off path ([Backoff]).
    - [Trip]: after taking the trip-wire descriptor, before raising the
      owner's publish request. The return value is ignored. *)
type steal_phase = Pre_cas | Post_cas | Trip

val steal :
  ?interfere:(steal_phase -> bool) -> 'a t -> thief:int -> 'a steal_result
(** Attempt to steal the bottom-most public task on behalf of worker
    [thief]. Never blocks. [interfere] (default: never) is the fault
    injection hook; delays are performed inside the callback, aborts
    communicated through its result. *)

val complete_steal : 'a t -> index:int -> unit
(** Thief-side: mark the stolen descriptor DONE, unblocking the owner's
    join. *)

val steal_count : 'a t -> int
(** Steals committed on this stack since its creation: the high half of
    the packed [bot] word a successful steal stores, which
    {!steal_pressure} reads. Racy snapshot. The stack keeps no other
    counters: its owner learns inlines and stolen joins from {!pop}'s
    code, back-offs from {!steal}'s result, and window changes from
    {!set_event_hooks}. *)

val set_event_hooks :
  'a t -> on_publish:(unit -> unit) -> on_privatize:(unit -> unit) -> unit
(** Hooks the runtime counts and traces window changes through. Both run
    on the owner, inside the publish / privatize transitions only — never
    on the private fast path — so they may not touch the stack
    re-entrantly. Defaults are no-ops. *)

val check_quiescent : 'a t -> string list
(** Protocol-invariant check at quiescence (owner-side, nothing in
    flight): every descriptor state EMPTY, every payload cell back to
    [dummy], [top = 0] and [bot = 0]. Returns human-readable violations,
    [[]] when clean. Scans the whole capacity; diagnostic-path only. *)

val dump_live : 'a t -> (int * string) list
(** Racy snapshot of the live descriptors — every index below [top] plus
    any index whose state is not EMPTY — with a printable state name.
    For failure-time diagnostics (the stall watchdog's report). *)

val layout_check : 'a t -> string list
(** Verify the cache-conscious layout invariants: the owner block, each
    shared atomic, and every slot's state word occupy whole cache lines
    (see {!Wool_util.Layout.is_padded}). Returns human-readable
    violations, [[]] when clean. Scans every slot; test-path only. *)
