(** Task-descriptor state words for the direct task stack.

    The paper packs the state into a single word: a pointer to the wrapper
    function for TASK, odd integers for the rest. In OCaml we use a plain
    [int] inside an [Atomic.t]; the wrapper closure lives in its own slot
    field, and TASK splits into private/public so that publicity is part of
    the synchronised word (a thief's CAS can only ever succeed on a public
    task — the OCaml analogue of "any steal attempt for this task will
    fail"). *)

type t = int

val empty : t
(** No task stored (or a transient state while a thief is mid-steal). *)

val task_private : t
(** A task that only the owner may take; the owner's join needs no atomic
    read-modify-write for it. *)

val task_public : t
(** A stealable task; joined with an atomic exchange, stolen with CAS. *)

val done_ : t
(** A stolen task whose thief has completed it. *)

val stolen : thief:int -> t
(** A task stolen by worker [thief]. *)

val is_task : t -> bool
(** True for both private and public tasks. *)

val is_task_public : t -> bool
val is_stolen : t -> bool

val thief : t -> int
(** The thief index of a {!stolen} state. Requires [is_stolen]. *)

val pp : Format.formatter -> t -> unit

exception Pool_overflow
(** Raised when a task pool is at capacity (see
    {!Direct_stack.Pool_overflow}). Declared here so that every
    instantiation of the direct-stack body raises the same exception. *)

(** Which descriptors of a direct task stack are stealable (see
    {!Direct_stack.publicity}). Declared here for the same reason as
    {!Pool_overflow}: the library's stack, the pool's and the model
    checker's share one type. *)
type publicity = All_private | All_public | Adaptive of int

type outcome = (Obj.t, exn * Printexc.raw_backtrace) result
(** A finished task's outcome, its value's type hidden: what a slot's
    result cell holds between a thief's run of the task and the owner's
    join (see {!Direct_stack.set_result}). The runtime casts the value
    back; the stack only stores it. *)

val no_outcome : outcome
(** An empty result cell, recognised by identity. *)
