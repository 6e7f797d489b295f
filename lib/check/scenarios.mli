(** Bounded model-checking scenarios over the shipped protocol bodies:
    the descriptor lifecycle, thief/thief CAS races through the packed
    [botw] commit, the delayed-CAS recycled-descriptor back-off, the
    trip-wire steal-vs-privatize race, mid-run publication, an owner
    leapfrogging on a held stolen join, the Chase-Lev last-element
    race, the shipped ingress body (submit-vs-shutdown ticket
    resolution, producer/producer/consumer races on the injection
    lane, [Shed_oldest] eviction against a draining worker), and the
    submission lifecycle (cancel-vs-complete settlement
    with duplicate deliveries, expire-vs-dequeue on a virtual clock, a
    pre-cancelled job racing the shutdown drain). Deque scenarios assert
    exactly-once execution, quiescence and counter balance on every
    schedule, and the ingress ones one winning claim per ticket. All
    assert cross-schedule coverage of the interesting paths. *)

type t = {
  name : string;
  descr : string;
  run : max_schedules:int -> Sched.stats;
}

type outcome = Pass of Sched.stats | Fail of string

val run_one : ?max_schedules:int -> t -> outcome
(** Explore one scenario exhaustively (default cap: 3M schedules). *)

val all : t list
