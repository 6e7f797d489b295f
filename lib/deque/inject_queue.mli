(** Bounded multi-producer multi-consumer injection queue.

    The ingress lanes of a pool: external (non-worker) domains push
    submitted jobs with {!try_push}; idle workers drain them with
    {!try_pop} between local pops and remote steals. Per-slot sequence
    numbers (the Vyukov bounded-queue protocol) make both ends lock-free
    — a failed cursor CAS always means another producer or consumer
    advanced — and the fixed capacity is what gives the pool
    backpressure to hang an admission policy on.

    Like the deques, the protocol body is instantiated twice: here
    against real [Atomic], and in [Wool_check] against the instrumented
    backend for exhaustive interleaving of submit vs. drain vs.
    shutdown. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~capacity ~dummy ()] makes an empty queue holding at most
    [capacity] elements (rounded up to a power of two, minimum 2 — the
    seq protocol needs the one-lap gap between a published cell and the
    producer's next visit to it). [dummy] fills vacated cells so
    consumed values are not retained. Raises [Invalid_argument] when no
    such power of two is an [int]. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue from any domain. [false] means the queue was full at the
    linearization point — the caller applies its admission policy. *)

val try_pop : 'a t -> 'a option
(** Dequeue from any domain. [None] means the queue was empty (or the
    winning producer of the head cell has not yet published). *)

val size : 'a t -> int
(** Instantaneous occupancy estimate (racy; for reporting only). *)
