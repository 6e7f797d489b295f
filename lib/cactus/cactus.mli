(** A real steal-parent (continuation-stealing) runtime on effect handlers.

    This is the scheduling discipline of Cilk / Cilk++, which the paper
    contrasts with Wool's steal-child design: [spawn] runs the child
    {e immediately} and makes the {e continuation} of the spawning
    function available for stealing, implemented here by capturing it with
    OCaml 5 effect handlers (each task body runs in its own fiber — the
    moral equivalent of Cilk++'s heap-allocated cactus-stack frames, and
    like them it taxes every spawn with an allocation; see the bench
    harness for the measured gap against the direct task stack).

    Consequences faithfully reproduced from §I:
    - a flat spawn loop runs in {e constant} task-pool space (the
      steal-child runtime holds one descriptor per pending iteration) —
      see {!max_pool_depth};
    - there is no buried-join problem: a function that reaches {!sync}
      with unfinished stolen children suspends, its worker moves on, and
      the {e last returning child} resumes it wherever that child ran
      (the "provably good steal" protocol).

    Programming model: [spawn ctx body] runs [body] now; the caller's
    continuation may migrate to another domain, so code after a [spawn]
    can execute on a different worker. [sync ctx] waits for every child
    this function spawned. Every function that spawns {b must} sync
    before returning (checked at runtime). Results are communicated
    through {!promise}s ([spawn_into]), readable after the sync. *)

type pool
type ctx

val create : ?workers:int -> ?idle_nap_ns:int -> ?seed:int -> unit -> pool
(** [workers] defaults to [Domain.recommended_domain_count ()];
    [idle_nap_ns] (default 50µs, the Wool pool's nap unit) is how long
    an idle worker sleeps when it naps. *)

val run : pool -> (ctx -> 'a) -> 'a
(** Execute a root task. Must be called from the creating domain, not from
    inside task code. If any task raised, the first exception recorded is
    re-raised here. Can be called repeatedly. *)

val shutdown : pool -> unit

val with_pool : ?workers:int -> ?seed:int -> (pool -> 'a) -> 'a

val spawn : ctx -> (ctx -> unit) -> unit
(** Run the child now; expose this function's continuation for stealing. *)

val sync : ctx -> unit
(** Wait for all children spawned by this function. If some are still
    running on thieves, the function suspends and its worker finds other
    work; the last child to finish resumes it. *)

type 'a promise

val promise : unit -> 'a promise

val spawn_into : ctx -> 'a promise -> (ctx -> 'a) -> unit
(** [spawn_into ctx p f] = [spawn] a child that fulfills [p]. *)

val read : 'a promise -> 'a
(** The value; only valid after the {!sync} covering the producing spawn.
    Raises [Invalid_argument] if not yet fulfilled. *)

type stats = {
  spawns : int;
  steals : int;  (** continuations migrated between workers *)
  suspensions : int;  (** syncs that had to park the function *)
  max_pool_depth : int;  (** §I: deepest continuation pool seen *)
}

val stats : pool -> stats
val reset_stats : pool -> unit
val num_workers : pool -> int
