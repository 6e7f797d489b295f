(** Chase–Lev dynamic circular work-stealing deque.

    The conventional pointer-based steal-child task pool (the family TBB and
    most runtimes use), implemented as the paper's comparison point for the
    direct task stack. The owner pushes and pops at the bottom; thieves take
    from the top with a CAS. The buffer grows on demand and never shrinks.

    Following Chase & Lev (SPAA'05), [pop] on the last remaining element
    races thieves with a CAS on [top]; every other owner operation is
    synchronisation-free apart from the release store on [bottom]. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Initial circular buffer capacity (default 64, rounded up to a power of
    two); grows automatically. *)

val push : 'a t -> 'a -> unit
(** Owner: add at the bottom. *)

val pop : 'a t -> 'a option
(** Owner: remove the most recently pushed element; [None] if empty. *)

val steal : 'a t -> [ `Stolen of 'a | `Empty | `Retry ]
(** Thief: take the oldest element. [`Retry] means a concurrent steal or the
    owner's last-element pop won the race. *)

val size : 'a t -> int
(** Racy snapshot of the current element count (never negative). *)
