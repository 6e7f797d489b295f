(** Bounded model-checking scenarios over the checked deque protocols:
    the descriptor lifecycle, thief/thief CAS races through the packed
    [botw] commit, the delayed-CAS recycled-descriptor back-off, the
    trip-wire steal-vs-privatize race, mid-run publication, the
    Chase-Lev last-element race, the shipped ingress body
    (submit-vs-shutdown ticket resolution, producer/producer/consumer
    races on the injection lanes), and the relaxed at-least-once
    protocols (ws_mult steal-vs-take and thief/thief multiplicity, the
    recycled-cell ABA on both relaxed pools, lowsync's boundary
    duplicate and CAS-serialized thieves), and the submission lifecycle
    (cancel-vs-complete settlement with duplicate deliveries,
    expire-vs-dequeue on a virtual clock, a pre-cancelled job racing
    the shutdown drain). Exact-mode scenarios assert exactly-once
    execution, quiescence and counter balance on every schedule, and
    the ingress ones one winning claim per ticket; relaxed scenarios
    assert at-least-once delivery with a small multiplicity bound and
    guard/self-run recovery. All assert cross-schedule coverage of the
    interesting paths. *)

type t = {
  name : string;
  descr : string;
  run : max_schedules:int -> Sched.stats;
}

type outcome = Pass of Sched.stats | Fail of string

val run_one : ?max_schedules:int -> t -> outcome
(** Explore one scenario exhaustively (default cap: 3M schedules). *)

val all : t list
