type t = int

let empty = 0
let task_private = 1
let task_public = 2
let done_ = 3
let stolen ~thief = 4 + thief
let is_task s = s = task_private || s = task_public
let is_task_public s = s = task_public
let is_stolen s = s >= 4
let thief s = if not (is_stolen s) then invalid_arg "Task_state.thief" else s - 4

let pp ppf s =
  if s = empty then Format.pp_print_string ppf "EMPTY"
  else if s = task_private then Format.pp_print_string ppf "TASK(private)"
  else if s = task_public then Format.pp_print_string ppf "TASK(public)"
  else if s = done_ then Format.pp_print_string ppf "DONE"
  else Format.fprintf ppf "STOLEN(%d)" (thief s)

exception Pool_overflow

type publicity = All_private | All_public | Adaptive of int

type outcome = (Obj.t, exn * Printexc.raw_backtrace) result

let no_outcome : outcome = Ok (Obj.repr ())
