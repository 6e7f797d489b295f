(** First-class pool-mode descriptors.

    One source of truth for the mode list and the name/parse tables.
    {!Wool} re-exports {!t} as [Wool.mode], so the constructors below are
    the same values configuration code matches on. Every mode
    executes each spawned task body exactly once. *)

type t =
  | Locked
      (** mutex-protected deque of slot indices (baseline); the tasks sit
          on an all-private direct task stack *)
  | Swap_generic  (** direct task stack, generic swap joins *)
  | Private
      (** direct task stack with private tasks — the paper's protocol *)
  | Clev  (** Chase-Lev dynamic circular deque, of slot indices too *)

val all : t list
(** Every mode, in the order reports print them. *)

val name : t -> string
(** Canonical lowercase name ([swap_generic], [clev], ...). *)

val of_name : string -> t option
(** Parse a mode name; accepts the canonical names plus hyphenated
    spellings historically printed by reports ([chase-lev], [swap]).
    Round-trips with {!name}. *)

val is_direct : t -> bool
(** Thieves steal from the paper's direct task stack (descriptor states,
    trip wire, leapfrogging). The queued modes keep their tasks on an
    all-private one and publish them through their deque. *)
