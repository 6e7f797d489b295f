(* The single source of truth for pool modes. Everything that used to be
   hand-rolled per consumer — the constructor list, the name table, the
   parse table, the "all modes" sweeps in tests/bench/fuzz — lives here.
   Every mode executes each spawned task body exactly once. *)

type t = Locked | Swap_generic | Private | Clev

let all = [ Locked; Swap_generic; Private; Clev ]

let name = function
  | Locked -> "locked"
  | Swap_generic -> "swap_generic"
  | Private -> "private"
  | Clev -> "clev"

(* Accept the canonical names plus the hyphenated spellings the bench
   reports have historically printed. *)
let of_name s =
  match String.lowercase_ascii s with
  | "locked" -> Some Locked
  | "swap_generic" | "swap-generic" | "swap" -> Some Swap_generic
  | "private" -> Some Private
  | "clev" | "chase-lev" | "chase_lev" -> Some Clev
  | _ -> None

(* Modes built on the paper's direct task stack (descriptor vocabulary,
   trip wire, leapfrogging). *)
let is_direct = function
  | Swap_generic | Private -> true
  | Locked | Clev -> false
