(** Cooperative cancellation tokens.

    A token is a shared one-way flag: once {!cancel}led it stays
    cancelled. Attach one to a submission
    ([Submit.submit ~cancel:token]) and every consumer of the token
    observes the same decision:

    - a worker dequeuing the job while the token is set drops it — the
      ticket resolves cancelled and the body never runs;
    - a body already running polls the token ({!is_set} / {!check}), and
      every {!Pool.spawn} in the submission's task tree checks the
      worker's ambient token for free;
    - settlement is one CAS claim on the ticket's state word, so a
      cancel racing a completion resolves the ticket exactly once in
      every mode.

    Cancellation is cooperative: a body that never polls simply runs to
    completion (and then the completion wins the settlement). One token
    may be shared by any number of submissions. *)

type t = bool Atomic.t
(** The flag itself: the ingress reads it directly when it dequeues a
    job ([Wool_deque.Ingress.must_run]). Set it only through
    {!cancel}. *)

exception Cancelled
(** Raised by {!check} (and by [Submit.await] on a ticket whose job was
    cancelled). Task bodies may also raise it directly: the runtime
    treats any [Cancelled] escaping a submitted body as a cancellation,
    resolving the ticket cancelled rather than failed. *)

val create : unit -> t
(** A fresh, un-cancelled token. *)

val cancel : t -> unit
(** Set the flag. Idempotent; safe from any domain. Never blocks: the
    effect on queued/running work is asynchronous and cooperative. *)

val is_set : t -> bool

val check : t -> unit
(** Raise {!Cancelled} if the token is set; the polling idiom for
    long-running bodies ([Cancel.check token] at loop heads). *)
