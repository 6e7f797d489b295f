(** Disabled-path overhead of the robustness hooks ("woolbench hooks").

    fib(30) on 2 workers, minimum of 9 runs each (a fresh pool per run,
    the three configurations taking turns), with faults absent
    ([Config.faults = None]), with a live but empty
    {!Wool_fault.Plan.none}, and with the stall watchdog sampling every
    100 ms an otherwise untouched pool. *)

val run : unit -> unit
(** Print the three-row table, each row's time against "faults off". *)
