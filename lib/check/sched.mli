(** Systematic (DSCheck-style) scheduler for bounded protocol scenarios.

    Explores every interleaving of a fixed set of threads whose shared
    accesses all go through {!Shadow_atomic}, by depth-first search with
    prefix replay. Scenario setup must be deterministic: each explored
    schedule re-executes it from scratch. *)

type stats = { schedules : int; max_depth : int }

exception Deadlock of string
(** Every live thread is parked in {!relax} and no writer remains; the
    payload is the schedule that got there. *)

exception Schedule_limit of int
(** The exploration exceeded [max_schedules] runs. *)

exception Violation of string * string
(** [(message, schedule)]: a thread or final assertion raised. *)

val spawn : (unit -> unit) -> unit
(** Register a thread. Only from setup code. *)

val final : (unit -> unit) -> unit
(** Register an assertion to run (directly, not under the scheduler)
    after all threads of a schedule finish. Raise to fail the run. *)

val exec : label:string -> write:bool -> (unit -> 'a) -> 'a
(** Execute one shared-memory operation as a scheduling point. Called by
    {!Shadow_atomic}; outside exploration the operation runs directly. *)

val self : unit -> int
(** The calling thread's spawn index; [-1] outside a thread. *)

val relax : unit -> unit
(** Spin-wait hint: park the calling thread until another thread
    performs a write. A no-op outside exploration. *)

val run : ?max_schedules:int -> (unit -> unit) -> stats
(** [run setup] explores every schedule of the scenario. Returns the
    exploration size, or raises {!Deadlock} / {!Violation} /
    {!Schedule_limit} on the first failing schedule. *)
