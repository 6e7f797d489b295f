(** Lock-based task deque: the paper's baseline (§IV-B).

    A per-worker array deque whose join and steal operations are serialised
    by one mutex ("per-worker locks for mutual exclusion of thieves and
    victim; a worker takes the lock for join (but not spawn) operations").
    Spawns are lock-free: only the owner moves [top], and a thief holding
    the lock validates against it. A thief takes the lock as soon as it
    has picked its victim, the §IV-C ladder's first rung; the simulator
    ([Wool_sim.Policy]) models the ladder's peek and trylock rungs. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val push : 'a t -> 'a -> unit
(** Owner: spawn without taking the lock. Raises
    {!Task_state.Pool_overflow} on overflow, before mutating anything. *)

val pop : 'a t -> 'a option
(** Owner: join under the lock; [None] when every remaining task has been
    stolen (or the deque is empty), in which case the deque's indices
    rewind to 0, so steals do not use up its capacity. *)

val steal : 'a t -> 'a option
(** Thief: take the oldest task under the lock. *)

val size : 'a t -> int
(** Racy snapshot of available tasks. *)
