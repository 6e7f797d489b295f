(** Deterministic fault injection for the scheduler core.

    The direct task stack's correctness argument (paper §III-A) rests on
    races that almost never happen on their own: a thief's CAS delayed
    past a descriptor recycle, a trip wire sprung while the owner is
    mid-publish, an exception unwinding a half-joined spawn tree. This
    library makes those scenarios reproducible: a {!Plan.t} is a pure,
    seed-derived description of {e which} faults fire {e where}, and a
    per-worker {!Injector.t} replays it deterministically — same plan,
    same worker, same decision sequence, every run.

    The runtime consults the injector at fixed {!Site.t}s (every
    scheduler transition); a disabled pool carries no injector and pays
    only one immutable-bool branch per site (the same discipline as the
    trace rings). Faults are perturbations, not corruption: every fault
    kind except {!Kind.Raise_exn} must leave workload results
    bit-identical, and [Raise_exn] raises {!Injected}, which must
    propagate to the joiner like any task exception. *)

(** Where in the scheduler a fault can fire. One constructor per
    protocol transition. *)
module Site : sig
  type t =
    | Pre_steal_cas
        (** thief side, after reading the descriptor state and before the
            steal CAS — a delay here recreates the §III-A delayed-thief
            ABA; an abort models a lost CAS race *)
    | Post_steal_cas
        (** thief side, after a winning CAS and before the [bot]
            re-check — an abort forces the back-off/restore path *)
    | Trip_wire
        (** thief side, between taking the trip-wire descriptor and
            raising the owner's publish request *)
    | Publish  (** owner side, inside the publish transition *)
    | Nap_entry  (** idle thief about to nap *)
    | Spawn  (** task push; the only site where {!Kind.Raise_exn} fires *)
    | Join  (** owner about to join its newest spawn *)
    | Leapfrog  (** each steal attempt made while leapfrogging *)
    | Submit
        (** producer side, on entry to [Submit.submit] — before the
            shutdown check, so a delay here widens the submit-vs-shutdown
            race window *)
    | Admit
        (** producer side, between winning a lane slot and publishing
            the admission — stretches the admit-vs-drain window *)
    | Drain
        (** worker side, each attempt to pop an injection lane in the
            idle loop *)
    | Expire
        (** worker side, after popping a deadline-stamped job and before
            the expiry check — a delay here stretches the
            expire-vs-dequeue race (the job may expire under the
            worker's feet) *)
    | Cancel
        (** worker side, after popping a token-carrying job and before
            the cancellation check — a delay here widens the
            cancel-vs-run window, racing the canceller's settlement
            against the worker's *)

  val all : t list
  val count : int
  val to_int : t -> int
  (** Dense index in [0, count). *)

  val name : t -> string
  val of_name : string -> t option
end

(** What happens when a fault fires. *)
module Kind : sig
  type t =
    | Delay of int  (** spin for [n] cpu-relax iterations, then proceed *)
    | Fail_steal
        (** abort the steal attempt (forced steal-CAS failure); only
            meaningful at [Pre_steal_cas] / [Post_steal_cas] *)
    | Raise_exn
        (** replace the spawned task body with [raise Injected]; only
            meaningful at [Spawn] *)
    | Stall of int
        (** spin for [n] iterations — same mechanism as [Delay], but
            sized to stop a worker's progress long enough to trip the
            stall watchdog *)
    | Dup
        (** deliver the popped injection-lane job to its worker twice —
            an at-least-once ingress, for exercising the ticket layer's
            duplicate-completion dedup; only meaningful at [Drain], and
            never part of {!Plan.random} (a duplicated job's side
            effects repeat, so the plan author must know the jobs are
            idempotent) *)

  val class_count : int
  val class_of : t -> int
  (** Dense constructor index (delay 0, fail 1, raise 2, stall 3,
      dup 4), used to key fire counters. *)

  val class_name : int -> string
  val name : t -> string
  val valid_at : t -> Site.t -> bool
end

exception Injected of { site : string; worker : int; fire : int }
(** The exception {!Kind.Raise_exn} raises: [site] is the firing site's
    name, [worker] the spawning worker, [fire] the 1-based count of
    fires this injector has made. *)

(** A fault plan: the seed plus the rule set it determines. Pure data;
    sharable between runs and printable for reports. *)
module Plan : sig
  type rule = {
    site : Site.t;
    kind : Kind.t;
    rate : float;  (** firing probability per site crossing, in [0,1] *)
    max_fires : int;  (** cap per worker; [-1] = unlimited *)
  }

  type t = { name : string; seed : int; rules : rule list }

  val none : t
  (** No rules: injectors are live (the hooks run) but never fire.
      Measures the enabled-but-empty dispatch cost. *)

  val make : ?name:string -> seed:int -> rule list -> t
  (** Rules whose kind is not {!Kind.valid_at} its site are rejected
      with [Invalid_argument]. *)

  val random : ?exceptions:bool -> seed:int -> unit -> t
  (** A seed-derived adversarial mix: several delay rules over random
      sites, a forced steal-failure rule, a rare bounded stall, and —
      unless [exceptions] is [false] — a bounded [Raise_exn] rule (at
      most 2 fires per worker, so a retried run is guaranteed to
      complete). Equal seeds give equal plans. *)

  val has_exceptions : t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Fire counters, per site × kind class. *)
module Stats : sig
  type t

  val zero : unit -> t
  val combine : t -> t -> t
  val total : t -> int
  val count : t -> Site.t -> int
  (** Fires at one site, summed over kinds. *)

  val fields : t -> (string * int) list
  (** Non-zero ["site/kind"] counters, for tables. *)

  val pp : Format.formatter -> t -> unit
end

(** Per-worker injector: owns a private RNG split from the plan seed so
    decision streams are deterministic per (plan, worker) and
    independent across workers. Not thread-safe; one per worker, like
    the victim-selection state. *)
module Injector : sig
  type t

  val make : Plan.t -> worker:int -> t

  val fire : t -> Site.t -> Kind.t option
  (** One site crossing: the first rule at [site] whose (deterministic)
      coin lands and whose per-worker fire cap is not exhausted fires;
      [None] otherwise. Counts the fire. *)

  val spin : int -> unit
  (** Busy-wait [n] cpu-relax iterations — the [Delay]/[Stall] payload.
      The loop is opaque to the optimiser. *)

  val injected_exn : t -> Site.t -> exn
  (** Fresh {!Injected} carrying this injector's identity. *)

  val stats : t -> Stats.t
  val fires : t -> int
end
