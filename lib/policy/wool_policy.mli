(** Shared steal-policy layer.

    Faxén's protocol leaves two scheduler decisions open: {e which victim}
    an idle thief probes (§III leapfrogging aside, the paper uses uniform
    random), and {e how an idle thief backs off} when probes keep failing
    (§IV-D2a models the cost of each attempt). This library owns both
    decisions as first-class values so that the real runtime
    ({!Wool.Config}) and the discrete-event simulator
    ({!Wool_sim.Engine}) are driven by the {e same} policy value and can
    be compared under it.

    The library provides the pure policy vocabulary ({!Selector.t},
    {!Backoff.t}, {!t}), the machine shape it can exploit
    ({!Topology.t}, {!Hier.t}), and the small per-worker state machines
    ({!Select}, {!Backoff.state}) both schedulers run, so victim choice
    cannot drift between measured and simulated runs. *)

(** Three-level machine tree: worker → core → socket → machine.

    Steal cost is non-uniform on real machines — an SMT sibling shares
    cache lines, a socket peer shares the LLC, a cross-socket victim
    costs an interconnect round trip. The topology gives the
    {!Selector.Hierarchical} selector (and the simulator's cost model)
    that structure. Distances are 0 (self), 1 (same core), 2 (same
    socket), 3 (cross-socket). *)
module Topology : sig
  type t

  val levels : int
  (** [3]: core, socket, machine. *)

  val make : ?sockets:int -> ?smt:int -> workers:int -> unit -> t
  (** Uniform machine: [workers] hardware threads spread over [sockets]
      contiguous blocks (worker [w] on socket [w * sockets / workers] —
      the exact mapping the simulator's [~sockets] parameter always
      used), each socket filled with cores of [smt] threads. Defaults:
      one socket, no SMT. Raises [Invalid_argument] on non-positive
      arguments; [sockets] is clamped to [workers]. *)

  val of_spec : int array array -> t
  (** Explicit, possibly ragged shape: [spec.(s).(c)] is the SMT width
      of core [c] on socket [s]; worker ids are assigned in order.
      Raises [Invalid_argument] on empty sockets or non-positive
      widths. *)

  val workers : t -> int
  val sockets : t -> int
  val cores : t -> int
  val socket_of : t -> int -> int
  val core_of : t -> int -> int

  val distance : t -> int -> int -> int
  (** [distance t a b]: 0 iff [a = b], else 1 same core, 2 same socket,
      3 cross-socket. Symmetric. *)

  val peers : t -> int -> level:int -> int array
  (** Workers within [level] hops of the given worker, excluding
      itself, ascending. [peers t w ~level:3] is every other worker. *)

  val name : t -> string
  (** Sockets joined by [+]; each socket is ["<cores>"] (all single
      threads, e.g. ["4+4"]), ["<c>x<k>"] (uniform SMT [k]), or
      dot-joined widths for ragged sockets (["2.1.1"]). *)

  val of_name : string -> t option
  (** Inverse of {!name} (accepts any shape the grammar can spell). *)

  val pp : Format.formatter -> t -> unit
end

(** Parameters of the {!Selector.Hierarchical} selector: which topology
    to probe over and how eagerly to widen the probe radius. *)
module Hier : sig
  (** [Auto] builds a uniform {!Topology.t} from the worker count the
      scheduler reports at the first probe, so one policy value works
      for any pool size; [Fixed] pins an explicit shape (a pool whose
      size disagrees falls back to uniform random). *)
  type spec = Auto of { sockets : int; smt : int } | Fixed of Topology.t

  type t = private {
    spec : spec;
    probes : int array;
        (** failed probes tolerated at each inner radius (core, socket)
            before widening to the next *)
    escalate_pct : int array;
        (** percent chance a probe at an inner radius jumps one ring
            out anyway — keeps remote victims from starving *)
  }

  val default_probes : int array
  (** [[|2; 8|]]. *)

  val default_escalate_pct : int array
  (** [[|15; 8|]]. *)

  val make : ?probes:int array -> ?escalate_pct:int array -> spec -> t
  (** Raises [Invalid_argument] unless both arrays have
      [Topology.levels - 1] entries, probes positive, percentages in
      [0,100], and an [Auto] spec positive. *)

  val auto :
    ?probes:int array -> ?escalate_pct:int array -> ?smt:int ->
    sockets:int -> unit -> t

  val fixed : ?probes:int array -> ?escalate_pct:int array -> Topology.t -> t

  val default : t
  (** [auto ~sockets:2 ()]. *)

  val topology : t -> workers:int -> Topology.t option
  (** The concrete topology this policy probes over for a pool of
      [workers] ([None] iff a [Fixed] shape disagrees with the pool
      size, or [workers <= 0]). *)

  val name : t -> string
  (** ["hier<k>"] ([Auto], [k] sockets), ["hier<k>x<t>"] (SMT [t]),
      ["hier(<topology>)"] ([Fixed]); non-default knobs append
      [":p<a>.<b>"] and [":e<a>.<b>"]. *)

  val of_name : string -> t option
  val pp : Format.formatter -> t -> unit
end

module Selector : sig
  type t =
    | Random_victim  (** uniform among the other workers (the default) *)
    | Round_robin  (** cyclic scan over worker ids *)
    | Last_victim  (** stick to the last victim a steal succeeded on *)
    | Leapfrog_biased
        (** prefer the recorded thief of our own stolen tasks (the worker
            most recently seen holding work we are waiting on), falling
            back to uniform random *)
    | Socket_local
        (** prefer victims on our own socket 3 probes out of 4; needs a
            socket topology ([socket_of]) to be meaningful — under a
            trivial map it degrades to uniform random *)
    | Hierarchical of Hier.t
        (** near-first probing over a {!Topology.t}: start at the
            innermost non-empty ring, widen after a per-level budget of
            failed probes (with a per-level chance of jumping out
            early), snap back inward on success, and steal back from
            the recorded thief of our own tasks first *)

  val all : t list
  (** Every selector, in declaration order ({!Hierarchical} with
      {!Hier.default} last). *)

  val name : t -> string
  val of_name : string -> t option
end

module Backoff : sig
  type t =
    | Nap_after of int
        (** nap once after every [n] consecutive failed steals — the
            historical behaviour ([Nap_after 64]) *)
    | Exponential of { streak : int; max_factor : int }
        (** after [streak] consecutive failures nap once; each subsequent
            nap doubles in length up to [max_factor] nap units, resetting
            on a successful steal *)
    | Yield_then_nap of { yields : int; naps : int }
        (** ladder: spin below [yields] failures, yield the timeslice up
            to [naps] failures, then nap *)

  val default : t
  (** [Nap_after 64]: bit-for-bit the historical idle loop. *)

  val all : t list
  (** One representative of each shape (for sweeps). *)

  val name : t -> string
  val of_name : string -> t option

  (** What the idle loop should do after one more failed steal. [Nap f]
      means sleep [f] nap units; the unit is the scheduler's
      (50µs in the real runtime, [nap_cycles] in the simulator). A
      worker of a real server pool with no job in flight polls up to
      0.5 ms, then parks instead, until a submission or shutdown wakes
      it. *)
  type action = Relax | Yield | Nap of int

  type state
  (** Per-worker failure-streak tracker. Not thread-safe; one per
      worker. *)

  val make : t -> state
  val on_failure : state -> action
  (** Count one failed steal attempt and say how to back off. *)

  val on_success : state -> unit
  (** A steal succeeded: reset the streak (and the exponential ladder). *)
end

(** What a full injection lane does to a new submission — the
    backpressure half of the ingress path. Owned here (rather than by
    the runtime) for the same reason as {!Selector}: the load generator
    sweeps admission policies exactly as [woolbench policy] sweeps steal
    policies, and both sides must agree on the vocabulary. *)
module Admission : sig
  type t =
    | Block  (** the producer waits for a slot (closed-loop producers) *)
    | Reject  (** the submission's ticket resolves rejected immediately *)
    | Shed_oldest
        (** evict the oldest queued job (its ticket resolves rejected)
            to make room — latency-SLO serving, where a stale job is
            worth less than a fresh one *)
    | Adaptive
        (** feedback controller: sheds {e before} the lane fills when a
            sojourn-latency EWMA exceeds the pool's configured target
            ([admission_target_ns]), otherwise admits; a full lane
            rejects like {!Reject}. Turns overload into bounded-latency
            goodput instead of unbounded queueing *)

  val all : t list
  val name : t -> string
  val of_name : string -> t option
end

(** Per-worker victim-selection state machine. Both schedulers call
    [next] for every unpinned steal attempt and report outcomes back, so
    a given (seed, selector) pair yields the same victim sequence in the
    runtime and the simulator. *)
module Select : sig
  type state

  val make : ?socket_of:(int -> int) -> Selector.t -> self:int -> unit -> state
  (** [make selector ~self ()] for worker id [self]. [socket_of] maps a
      worker id to its socket (default: everything on socket 0), used
      only by {!Selector.Socket_local}; {!Selector.Hierarchical}
      carries its own topology. *)

  val next : state -> rng:Wool_util.Rng.t -> n:int -> int option
  (** Choose a victim among [n] workers ([None] iff [n <= 1]). Never
      returns [self]. Draws from [rng] only as the selector requires. *)

  val on_success : state -> victim:int -> unit
  (** A steal (pinned or not) succeeded on [victim]. Resets a
      hierarchical probe radius to the innermost ring. *)

  val on_failure : state -> unit
  (** An {e unpinned} attempt failed: drop affinities (last victim /
      recorded thief) so the next probe falls back to random, and count
      the failure toward a hierarchical radius escalation. *)

  val stolen_by : state -> thief:int -> unit
  (** One of our own tasks was seen stolen by [thief]
      ({!Selector.Leapfrog_biased} affinity, and the
      {!Selector.Hierarchical} steal-back hint). *)

  val hier_level : state -> int option
  (** Current hierarchical probe radius (1 core, 2 socket, 3 machine)
      once the topology has been resolved against a pool size; [None]
      for flat selectors or before the first probe. For tests and
      diagnostics. *)
end

type t = { selector : Selector.t; backoff : Backoff.t }
(** A complete steal policy: victim selection plus idle backoff. *)

val default : t
(** [{ selector = Random_victim; backoff = Nap_after 64 }] — exactly the
    behaviour both schedulers had before policies were configurable. *)

val make : ?selector:Selector.t -> ?backoff:Backoff.t -> unit -> t

val name : t -> string
(** ["<selector>/<backoff>"], e.g. ["random/nap64"]. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val pp : Format.formatter -> t -> unit

val sweep : unit -> t list
(** The full {!Selector.all} × {!Backoff.all} grid, selectors varying
    slowest — what [woolbench policy] benchmarks. *)
