(* The single source of truth for pool modes. Everything that used to be
   hand-rolled per consumer — the constructor list, the name table, the
   parse table, the "all modes" sweeps in tests/bench/fuzz — lives here.
   Every mode executes each spawned task body exactly once. *)

type t = Locked | Swap_generic | Task_specific | Private | Clev

let all = [ Locked; Swap_generic; Task_specific; Private; Clev ]

let name = function
  | Locked -> "locked"
  | Swap_generic -> "swap_generic"
  | Task_specific -> "task_specific"
  | Private -> "private"
  | Clev -> "clev"

(* Accept the canonical names plus the hyphenated spellings the bench
   reports have historically printed. *)
let of_name s =
  match String.lowercase_ascii s with
  | "locked" -> Some Locked
  | "swap_generic" | "swap-generic" | "swap" -> Some Swap_generic
  | "task_specific" | "task-specific" -> Some Task_specific
  | "private" -> Some Private
  | "clev" | "chase-lev" | "chase_lev" -> Some Clev
  | _ -> None

(* Modes built on the paper's direct task stack (descriptor vocabulary,
   trip wire, leapfrogging). *)
let is_direct = function
  | Swap_generic | Task_specific | Private -> true
  | Locked | Clev -> false

let describe = function
  | Locked -> "mutex-protected deque (baseline)"
  | Swap_generic -> "direct task stack, generic swap joins"
  | Task_specific -> "direct task stack, task-specific joins"
  | Private -> "direct task stack with private tasks (the paper's protocol)"
  | Clev -> "Chase-Lev dynamic circular deque"
