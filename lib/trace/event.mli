(** The shared scheduler-event vocabulary.

    One tag per scheduler transition of the real runtime ({!Wool}) and
    of the simulator ({!Wool_sim.Engine}), so that measured event streams
    can be compared against simulated ones directly. An event is a flat
    record of small integers — cheap to store unboxed in a {!Ring} — plus
    the tag:

    - [ts]: monotonic timestamp. Nanoseconds for the real runtime,
      virtual cycles for the simulator.
    - [worker]: the worker that recorded the event (owner of the ring).
    - [a]: task depth / descriptor index when meaningful, [-1] otherwise.
    - [b]: the peer worker — victim for steal-side events, thief for
      [Join_stolen] — or [-1] when there is none (or it is unknown). *)

type tag =
  | Spawn  (** task pushed on the spawner's pool; [a] = descriptor index *)
  | Inline_private  (** join inlined a never-published descriptor *)
  | Inline_public  (** join inlined a published descriptor (synchronised) *)
  | Join_stolen
      (** join found the task stolen; [b] = thief id, [-1] if the thief
          had already finished when the owner looked *)
  | Steal_attempt  (** thief probes a victim; [b] = victim id *)
  | Steal_ok  (** successful steal; [a] = descriptor index, [b] = victim *)
  | Steal_backoff  (** §III-A delayed-thief ABA back-off; [b] = victim *)
  | Leap_steal  (** successful steal made while leapfrogging; [b] = victim *)
  | Publish  (** trip-wire sprung: public window extended *)
  | Privatize  (** adaptive window shrunk after inlined public joins *)
  | Nap_enter  (** idle thief starts a nap after a failed-steal burst *)
  | Nap_exit  (** idle thief wakes up *)
  | Submit
      (** external producer offers a job to the ingress; [b] = batch
          size ([-1] for a single submit). [a] is [-1] in the four
          ingress events: the ingress has one lane *)
  | Admit  (** ingress accepted the job into its lane *)
  | Reject
      (** ingress refused the job (full lane under [Reject], or pool
          shut down), or dropped a queued one unrun *)
  | Dequeue_injected  (** an idle worker drained one injected job *)

type t = { ts : int; worker : int; tag : tag; a : int; b : int }

val n_tags : int

external tag_to_int : tag -> int = "%identity"
(** Dense index in [0, n_tags): the constructor's declaration index
    (used as the on-ring encoding and to index the runtime's per-worker
    count table). An external, so a constant tag is a constant index
    even across compilation units built [-opaque]. *)

val tag_of_int : int -> tag option
(** Inverse of {!tag_to_int}; [None] outside [0, n_tags). *)

val tag_name : tag -> string
(** Short lowercase name, e.g. ["steal_ok"]; used in JSON output. *)

val tag_of_name : string -> tag option

val all_tags : tag array

val to_tree : t -> Json.tree
(** The object [{"ts":..,"w":..,"tag":"..","a":..,"b":..}]; print it
    with {!Json.to_string}. *)

val of_tree : Json.tree -> t option
(** Inverse of {!to_tree}, members in any order; [None] when one is
    missing, is not an integer, or names an unknown tag. *)

val pp : Format.formatter -> t -> unit
