(** Lock-based task deque: the paper's baseline ladder (§IV-B, §IV-C).

    A per-worker array deque whose join and steal operations are serialised
    by one mutex ("per-worker locks for mutual exclusion of thieves and
    victim; a worker takes the lock for join (but not spawn) operations").
    Spawns are lock-free: only the owner moves [top], and a thief holding
    the lock validates against it.

    The three stealing disciplines of §IV-C are selected per call:
    - [`Base]: take the lock immediately after selecting the victim.
    - [`Peek]: first read the bottom descriptor without the lock; take the
      lock only if there appears to be a stealable task.
    - [`Trylock]: peek, then use [Mutex.try_lock] and abort the steal if the
      lock is held. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val push : 'a t -> 'a -> unit
(** Owner: spawn without taking the lock. Raises
    {!Task_state.Pool_overflow} on overflow, before mutating anything. *)

val pop : 'a t -> 'a option
(** Owner: join under the lock; [None] when every remaining task has been
    stolen (or the deque is empty), in which case the deque's indices
    rewind to 0, so steals do not use up its capacity. *)

val steal : mode:[ `Base | `Peek | `Trylock ] -> 'a t -> 'a option
(** Thief: take the oldest task under the locking discipline [mode]. *)

val size : 'a t -> int
(** Racy snapshot of available tasks. *)

type stats = { lock_acquires : int; peek_rejects : int; trylock_aborts : int }

val stats : 'a t -> stats
