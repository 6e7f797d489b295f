(** Lock-based task pool: the paper's baseline (§IV-B).

    The lock guards the owner's stack itself: its slots keep the tasks,
    and this is the range [\[bot, top)] of slot indices open to thieves.
    The owner joins newest first and thieves take the oldest first, so
    the open indices are one run ending at the stack's depth, as the
    Cilk-5 THE protocol keeps only indices into its frame stack. The
    range has no capacity: the stack's 65,536 slots bound it.

    Joins and steals take the per-worker lock, spawns do not ("a worker
    takes the lock for join (but not spawn) operations"): only the owner
    moves [top], and a thief holding the lock validates against it. A
    thief takes the lock as soon as it has picked its victim, the §IV-C
    ladder's first rung; [Wool_sim.Policy] models the peek and trylock
    rungs. *)

type t

val create : unit -> t
(** The empty range [\[0, 0)]. *)

val push : t -> unit
(** Owner: open the slot at index [top], without the lock. *)

val pop : t -> int
(** Owner: take back the newest index, or [-1], changing nothing, when
    thieves took them all. *)

val steal : t -> int
(** Thief: take the oldest index, or [-1]. *)

val rewind : t -> int -> unit
(** Owner: make the range [\[i, i)]. A join whose index [i] was stolen
    finds the range at [\[i + 1, i + 1)] and rewinds it once the slot is
    released. *)

val range : t -> int * int
(** Racy snapshot of [(bot, top)]. *)

val size : t -> int
(** Racy snapshot of the open indices' count. *)
