(** First-class pool-mode descriptors.

    One source of truth for the mode list and the name/parse tables.
    {!Wool} re-exports {!t} as [Wool.mode], so the constructors below are
    the same values configuration code matches on. Every mode
    executes each spawned task body exactly once. *)

type t =
  | Locked  (** mutex-protected deque (baseline) *)
  | Swap_generic  (** direct task stack, generic swap joins *)
  | Private
      (** direct task stack with private tasks — the paper's protocol *)
  | Clev  (** Chase-Lev dynamic circular deque *)

val all : t list
(** Every mode, in the order reports print them. *)

val name : t -> string
(** Canonical lowercase name ([swap_generic], [clev], ...). *)

val of_name : string -> t option
(** Parse a mode name; accepts the canonical names plus hyphenated
    spellings historically printed by reports ([chase-lev], [swap]).
    Round-trips with {!name}. *)

val is_direct : t -> bool
(** Built on the paper's direct task stack (descriptor vocabulary, trip
    wire, leapfrogging). *)
