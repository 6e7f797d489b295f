(** Wool: efficient work stealing for fine grained parallelism.

    OCaml implementation of the direct task stack scheduler of Faxén
    (ICPP 2010). The execution model is SPAWN / CALL / JOIN over a pool of
    domain workers; see {!Pool} for the full API and semantics. This
    module re-exports the pool operations under short names and adds
    divide-and-conquer combinators. *)

module Pool = Pool

module Mode = Pool.Mode
(** First-class mode descriptors: the canonical mode list, names and
    parsing; see {!Pool.Mode}. *)

module Config = Pool.Config
(** Pool configuration records; see {!Pool.Config}. *)

module Stats = Pool.Stats
(** Scheduler counters, one per {!Wool_trace.Event.tag}: [Stats.count s
    Spawn], [Stats.max_pool_depth s], and the twelve-key JSON
    ({!Pool.Stats.keys}); see {!Pool.Stats}. *)

module Policy = Wool_policy
(** Steal policies (victim selection + idle backoff); the same
    {!Wool_policy.t} value configures this runtime
    ([Config.make ~policy]) and the simulator
    ([Wool_sim.Engine.run ~steal_policy]). *)

module Fault = Wool_fault
(** Deterministic fault injection plans; pass one via
    [Config.make ~faults]. See {!Wool_fault}. *)

module Invariants = Pool.Invariants
(** Quiescent protocol-invariant checker; see {!Pool.Invariants}. *)

module Submit = Pool.Submit
(** External submission: inject work from any domain, get a ticket per
    job; see {!Pool.Submit}. Tickets carry optional deadlines and cancel
    tokens, and {!Submit.submit_retry} retries rejected admissions with
    backoff. *)

module Cancel = Cancel
(** Cooperative cancellation tokens ([Submit.submit ~cancel]); see
    {!Cancel}. *)

type pool = Pool.t
type ctx = Pool.ctx
type 'a future = 'a Pool.future

type mode = Pool.mode =
  | Locked  (** per-worker lock at joins and steals (Table II "base") *)
  | Swap_generic  (** descriptor-state exchange, generic join *)
  | Private
      (** + direct typed call on inlined joins, and private descriptors
          with trip wires (default) *)
  | Clev  (** Chase–Lev pointer deque baseline (TBB-like) *)

type publicity = Pool.publicity =
  | All_private
  | All_public
  | Adaptive of int

type admission = Pool.admission =
  | Block
  | Reject
  | Shed_oldest
  | Adaptive
(** Full-lane admission policy for external submissions
    ([Config.make ~admission]); [Adaptive] is the feedback controller
    holding the sojourn-latency EWMA under
    [Config.admission_target_ns]. See {!Pool.type-admission}. *)

type ingress_stats = Pool.ingress_stats
(** Ingress counters (submitted/admitted/rejected/shed/executed/expired/
    cancelled/in-flight); see {!Pool.type-ingress_stats}. *)

exception Pool_overflow
(** Raised by {!spawn} when the worker's task pool is at capacity, before
    any state is mutated; see {!Pool.Pool_overflow}. *)

exception Submission_rejected
(** Raised by {!Submit.await} on a rejected ticket; see
    {!Pool.Submission_rejected}. *)

exception Submission_expired
(** Raised by {!Submit.await} on a ticket whose job's deadline passed
    before a worker took it; see {!Pool.Submission_expired}. *)

val create : ?config:Config.t -> unit -> pool
(** See {!Pool.create}: [config] (built with {!Config.make}) carries
    every setting. *)

val run : pool -> (ctx -> 'a) -> 'a
(** Run a main task to completion as worker 0 (on a server pool:
    submit and await); see {!Pool.run} for the server/non-server
    semantics. *)

val shutdown : pool -> unit
(** Stop and join the workers, then drain the injection lanes rejecting
    every queued ticket; see {!Pool.shutdown}. *)

val with_pool : ?config:Config.t -> (pool -> 'a) -> 'a
(** See {!Pool.with_pool}. *)

val spawn : ctx -> (ctx -> 'a) -> 'a future
(** The task body executes exactly once, in every mode; see
    {!Pool.spawn}. *)

val join : ctx -> 'a future -> 'a
val call : ctx -> (ctx -> 'a) -> 'a

val cancel_token : ctx -> Cancel.t option
(** The ambient cancel token of the submission this worker is running,
    if any; see {!Pool.cancel_token}. *)

val steal_pressure : ctx -> bool
(** Hunger poll for lazy splitters ({!Wool_ropes} and friends): [true]
    when thieves appear to be after this worker's work, so a task
    holding a divisible range should carve off a stealable half now.
    Backed by the direct task stack's trip-wire and thief-activity
    state; the queued modes answer with a conservative proxy.
    See {!Pool.steal_pressure}. *)

val self_id : ctx -> int
val num_workers : pool -> int

val policy : pool -> Wool_policy.t
(** The steal policy the pool runs; see {!Pool.policy}. *)

val policy_name : pool -> string

val ingress_stats : pool -> ingress_stats
(** See {!Pool.ingress_stats}. *)

val layout_check : pool -> string list
(** Cache-layout regression check; see {!Pool.layout_check}. *)

(* Fault injection and the stall watchdog (see {!Pool}): active when
   the pool was created with [faults] / [watchdog_stalls]. *)

val faults_enabled : pool -> bool
val fault_plan : pool -> Wool_fault.Plan.t option
val fault_stats : pool -> Wool_fault.Stats.t
val stall_report : pool -> string
val set_on_stall : pool -> (string -> unit) -> unit
val stalls_fired : pool -> int

(* Tracing (see {!Pool}): populated when the pool was created with
   [trace = true]. *)

val trace_enabled : pool -> bool
val trace_ingress : pool -> Wool_trace.Event.t array
val trace_events : pool -> Wool_trace.Event.t array
val trace_per_worker : pool -> Wool_trace.Event.t array array
val trace_dropped : pool -> int
val trace_clear : pool -> unit

(** {2 Divide-and-conquer combinators}

    Every combinator below spawns with {!spawn}, so each user-supplied
    body ([body i] / [f i] / [f xs.(i)]) runs exactly once, on whichever
    worker takes its leaf. Bodies that write shared state must make
    their writes safe under concurrency (one slot per index, or an
    atomic); the combinators add no synchronisation of their own. *)

val parallel_for : ctx -> ?grain:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for ctx ~grain lo hi body] runs [body i] for [lo <= i < hi]
    as a balanced binary task tree with at most [grain] iterations per
    leaf (default 1) — the spawn/call/join pattern of Figure 2 applied to
    index ranges. Raises [Invalid_argument] if [grain <= 0]. *)

val parallel_reduce :
  ctx -> ?grain:int -> int -> int -> neutral:'a -> (int -> 'a) ->
  ('a -> 'a -> 'a) -> 'a
(** Tree-shaped fold of [f lo ... f (hi-1)] under an associative [combine]
    with identity [neutral]. Raises [Invalid_argument] if [grain <= 0]. *)

val both : ctx -> (ctx -> 'a) -> (ctx -> 'b) -> 'a * 'b
(** Evaluate two computations as parallel tasks ([g] is the spawned
    one). *)

val parallel_map : ctx -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** Map over an array as a balanced task tree; results in order. Every
    element — including element 0, which seeds the output array — runs
    as a task inside the tree, so all of them see cancel checks, fault
    injection, trace accounting, and the scheduler unwind path
    uniformly. *)

val parallel_init : ctx -> ?grain:int -> int -> (int -> 'a) -> 'a array
(** [Array.init] with task-tree initialisers; the element-0 note of
    {!parallel_map} applies. Raises [Invalid_argument] on
    negative length. *)
