(** The Wool runtime: pools of domain workers with work stealing.

    This is the runtime's one documented signature. It is reached as
    {!Wool}, whose interface includes it and adds the loop
    combinators; [Pool] itself is internal to the library.

    A pool owns [workers] domains. The programming model inside a task
    is the paper's SPAWN / CALL / JOIN (Figure 2): [spawn] pushes a task
    on the calling worker's pool, the caller then typically does ordinary
    recursive calls, and [join] — which must be made in LIFO order —
    either inlines the task with a direct typed call or, if it was
    stolen, leapfrogs (steals only from the thief) until the thief
    completes it.

    {2 ctx vs pool}

    The API splits into two halves with distinct capabilities:

    - {!type:t} (the pool) is the {e outside} handle: any domain may hold
      one and use the ingress surface ({!Submit}, {!run}) and the
      introspection accessors. Nothing on a [t] touches a worker's hot
      path.
    - {!type:ctx} (the executing worker) is the {e inside} handle: it
      exists only within task code, is threaded explicitly (no
      domain-local lookup on the hot path), and grants the fine-grained
      verbs {!spawn} / {!join} / {!call}. A [ctx] must never escape the
      task that received it.

    Work enters a pool through the ingress: {!Submit.submit} from any
    domain, or {!run} from the owning domain, which counts its main task
    through the ingress and runs it as worker 0. Once
    a job is running, everything it spawns stays in the work-stealing
    core and never touches the injection lane.

    The [mode] selects the synchronisation strategy and reproduces the
    optimisation ladder of Table II plus a conventional baseline. Every
    mode keeps its tasks in one per-worker array of descriptors, the
    direct task stack, each holding the task closure itself. The modes
    come in two task-pool shapes, which differ in how thieves reach
    that array: through the descriptors' own states ([Swap_generic],
    [Private]), or through a per-worker deque of slot indices over an
    all-private stack ([Locked], [Clev]).

    - [Locked]: per-worker lock taken at join and steal; a descriptor's
      state only carries a stolen task's completion (the paper's "base"
      row). Joins take the generic path, as in [Swap_generic].
    - [Swap_generic]: atomic exchange on the descriptor state, but joins go
      through the generic path and the result cell ("synchronize on
      task").
    - [Private]: an inlined join calls the typed task function directly,
      and descriptors can be private with the trip-wire scheme ("private
      tasks"); the default. With [~publicity:All_public] it is the
      paper's "task specific join" row, which Table II gives the same
      cost as "private tasks (no private)".
    - [Clev]: a Chase–Lev deque with random (non-leapfrog) stealing on
      blocked joins — the conventional steal-child baseline (TBB-like),
      exhibiting the buried-join behaviour discussed in §I. Its cells
      name slots, which only the owner recycles, so a stale cell retains
      nothing.

    Every mode executes each spawned task body exactly once. *)

module Mode = Mode
(** First-class mode descriptors: the canonical mode list and the
    name/parse tables. *)

type t
(** A pool: the outside handle. Usable from any domain. *)

type ctx
(** The executing worker: the inside handle, threaded explicitly through
    task code (no domain-local lookup on the hot path). *)

type 'a future
(** A spawned task: the closure {!spawn} pushed, no record of its own. *)

type mode = Mode.t =
  | Locked
  | Swap_generic
  | Private
  | Clev

type publicity = Wool_deque.Task_state.publicity =
  | All_private
  | All_public
  | Adaptive of int

type admission = Wool_policy.Admission.t =
  | Block
  | Reject
  | Shed_oldest
  | Adaptive
(** What the full injection lane does to a new submission; see
    {!Wool_policy.Admission}. [Adaptive] also sheds {e before} the lane
    fills, whenever the ingress's sojourn-latency EWMA (fed by every
    dequeue) exceeds [Config.admission_target_ns] and a backlog
    exists. *)

module Cancel = Cancel
(** Cooperative cancellation tokens, attachable to submissions
    ({!Submit.submit}[ ~cancel]) and observed by their whole task
    trees. *)

exception Pool_overflow
(** Raised by {!spawn} when the calling worker's task pool already
    holds 65,536 outstanding tasks, in every mode: the direct stack's
    descriptors, which the queued modes' deques index too. The stack
    starts with 64 descriptors and doubles on demand up to that cap, so
    a pool costs the depth its tasks reach, not the cap. The same
    exception as {!Wool_deque.Task_state.Pool_overflow}.
    Raised before any pool state is mutated, so the counters stay
    balanced, the pool remains usable, and the spawn unwinds like an
    ordinary task-body exception in every mode. *)

exception Submission_rejected
(** Raised by {!Submit.await} (and {!run} on a racing shutdown) when the
    awaited ticket resolved rejected: the job was refused at admission
    ([Reject] policy, an [Adaptive] shed, or pool shutting down) or
    evicted before a worker took it ([Shed_oldest], shutdown drain).
    The job body did {e not} run. *)

exception Submission_expired
(** Raised by {!Submit.await} when the awaited ticket resolved expired:
    the job's [~deadline] passed before a worker took it, and the
    draining worker dropped it at dequeue time. The job body did {e not}
    run. *)

(** Pool configuration as a first-class value. A config record travels
    as one value, and [with_pool ~config] forwards {e every} setting by
    construction — this is the only way to configure a pool (the
    per-setting optional arguments [create] once took are gone; see
    README for the migration table). *)
module Config : sig
  type t = {
    workers : int option;
        (** [None] = [Domain.recommended_domain_count ()] *)
    mode : mode;
    publicity : publicity;
        (** [Private] only: [Swap_generic] is always [All_public], and
            the queued modes' stacks are [All_private] (their deques
            publish the tasks) *)
    seed : int;  (** victim-selection RNG seed *)
    trace : bool;  (** record scheduler events into per-worker rings *)
    trace_capacity : int;
        (** events retained per worker ring (rounded up to a power of
            two); overflow drops oldest-first *)
    policy : Wool_policy.t;
        (** the steal policy — the same value {!Wool_sim.Engine.run}
            accepts. Its selector picks the victim of unpinned steals
            (leapfrogging stays pinned to the thief regardless); a
            [Hierarchical] selector probes near-first over its
            {!Wool_policy.Topology}: an [Auto] spec sizes the topology
            from the pool's worker count at the first probe, and the
            join path's thief hints double as steal-back targets. Its
            backoff is the idle behaviour after failed steals; a
            {!Wool_policy.Backoff.Nap} factor sleeps that many 50µs
            units, except on a [server] pool with no job in flight,
            where the worker polls up to 0.5 ms, then parks until a
            submission wakes it (see [server]). Default {!Wool_policy.default}: random victims,
            nap after 64 failures — the historical behaviour *)
    faults : Wool_fault.Plan.t option;
        (** deterministic fault injection (default [None] = hooks compile
            to one dead branch per site; [Some Plan.none] = hooks live
            but no rules, the dispatch-overhead measurement case) *)
    watchdog_interval_ns : int;
        (** stall-watchdog sampling period (default 5ms) *)
    watchdog_stalls : int;
        (** consecutive no-progress samples before the watchdog reports
            a stalled worker; 0 (the default) disables the watchdog —
            no extra domain is spawned *)
    injection_capacity : int;
        (** slots of the ingress's one bounded MPMC injection lane,
            rounded up to a power of two (default 1024) *)
    admission : admission;
        (** what the full lane does to a new submission (default
            [Block]) *)
    admission_target_ns : int;
        (** [Adaptive] admission's sojourn-latency target (default 2ms):
            while the EWMA of observed lane-sojourn times, which the
            ingress keeps, is above this and a backlog exists, new
            submissions are rejected at the door. Ignored by the other
            admission policies. *)
    server : bool;
        (** server mode (default [false]): {e every} worker, including 0,
            is a spawned domain, and the creating domain is a pure
            producer — {!run} becomes submit-and-block-on-ticket instead
            of submit-and-help. Use for pools whose owner must stay
            responsive (accept loops, load generators). An idle server
            worker whose backoff reaches a nap while no job is in
            flight polls the ingress up to 0.5 ms, then parks on it
            instead of sleeping: a job submitted within the poll starts
            without a wake-up. Each admission wakes one parked worker
            (a submit to a pool with none parked pays one load for
            this), a woken worker that finds a job in flight wakes the
            next, and {!shutdown} wakes them all. A park is counted and
            traced as one [Nap_enter]/[Nap_exit] pair; a poll that ends
            with a job in flight is neither. While a job is in flight
            the workers nap as on any pool, so its spawns can be
            stolen. *)
  }

  val default : t
  (** [Private] mode, [Adaptive 4] publicity, auto worker count, tracing
      off, random victims with nap-after-64 backoff, a 1024-slot
      injection lane with [Block] admission, non-server. *)

  val validate : t -> t
  (** Reject nonsensical settings with a descriptive
      [Invalid_argument] naming the field: non-positive [workers],
      [trace_capacity] / [injection_capacity] outside [1..2^30], negative
      [watchdog_stalls], an [Adaptive w] [publicity] with [w <= 0],
      non-positive [watchdog_interval_ns] with the watchdog on, and
      non-positive [admission_target_ns] with [Adaptive] admission.
      Returns the config unchanged when valid. {!make} and pool creation
      both validate; call this directly only on records built by hand
      (or derived with [{ c with ... }]). *)

  val make :
    ?workers:int ->
    ?mode:mode ->
    ?publicity:publicity ->
    ?seed:int ->
    ?trace:bool ->
    ?trace_capacity:int ->
    ?policy:Wool_policy.t ->
    ?faults:Wool_fault.Plan.t ->
    ?watchdog_interval_ns:int ->
    ?watchdog_stalls:int ->
    ?injection_capacity:int ->
    ?admission:admission ->
    ?admission_target_ns:int ->
    ?server:bool ->
    unit ->
    t
  (** Builder over {!default}; omitted arguments keep the default. The
      result is {!validate}d. *)

end

val create : ?config:Config.t -> unit -> t
(** Create a pool from [config] (default {!Config.default}; validated —
    see {!Config.validate}). The per-setting optional arguments this
    function once took are gone; build a config with {!Config.make}.
    Returns once every spawned worker domain is running, so a {!run}
    right after it meets its thieves. *)

val run : t -> (ctx -> 'a) -> 'a
(** Execute a main task to completion. The job is counted through the
    ingress like any {!Submit.submit} (submitted, admitted, executed).

    On a non-server pool, it must be called from the domain that created
    the pool, which acts as worker 0, and not from inside task code. The
    calling domain first helps drain the jobs already queued in the
    injection lane, then runs the main task itself, synchronously:
    the task never enters the lane, so it is never rejected by
    backpressure, no idle worker can take it first, and
    {!self_id} of its context is always 0.

    On a [server] pool the caller is not a worker; [run pool f] is
    [Submit.await (Submit.submit pool f)] and waits in the calling
    domain, as {!Submit.await} does, without executing tasks on it.

    If the computation raises, every task it left outstanding is joined
    or drained first, so the pool is quiescent — and reusable — when the
    exception (re-raised with its original backtrace) reaches the
    caller. Raises [Invalid_argument] after {!shutdown}, and
    {!Submission_rejected} if a concurrent {!shutdown} drained the job
    before a worker took it. *)

val shutdown : t -> unit
(** Stop and join the worker domains (and the watchdog domain, if any),
    then drain the injection lane, resolving every still-queued ticket
    rejected — a submitter racing this call gets
    {!Submission_rejected} (or [None] from [try_submit]),
    deterministically and without hanging, never a stranded ticket.
    Idempotent: repeated calls are no-ops. Subsequent {!run}/{!spawn}
    calls raise [Invalid_argument]; subsequent submissions reject. *)

val with_pool : ?config:Config.t -> (t -> 'a) -> 'a
(** Create a pool, run [f], and shut the pool down (also on
    exceptions). *)

(** {2 External submission}

    The ingress surface: any domain — not just the pool's creator — may
    inject work. Producers get a ['a ticket] per job; workers treat the
    injection lane as an extra steal victim in their idle loop (after
    local pops, before remote steals), so injected jobs never perturb
    the private-task fast path. *)
module Submit : sig
  type 'a ticket
  (** Producer-side handle on one injected job: one atomic state word.
      It resolves exactly once — done (with the job's result or
      exception), rejected, cancelled or expired — by whichever of the
      job's endings wins a single CAS claim on that word. *)

  val submit :
    ?deadline:int ->
    ?cancel:Cancel.t ->
    t ->
    (ctx -> 'a) ->
    'a ticket
  (** Queue one job, honouring the pool's {!type:admission} policy when
      the lane is full ([Block] waits — aborting rejected if the pool
      stops — [Reject]/[Adaptive] resolve the ticket rejected
      immediately, [Shed_oldest] evicts the oldest queued job to make
      room; [Adaptive] additionally rejects at the door while the
      sojourn EWMA is above target and a backlog exists). Safe from any
      domain, including concurrently with {!shutdown}: the ticket
      always resolves.

      [~deadline] (absolute, in [Wool_util.Clock.now_ns] nanoseconds —
      see {!deadline_in}) stamps the job: a worker dequeuing it after
      the deadline drops it unrun and the ticket resolves expired.
      [~cancel] attaches a {!Cancel.t} token: if the token is set when
      a worker dequeues the job, it is dropped unrun and the ticket
      resolves cancelled; while the job runs, the token is the ambient
      token of its task tree (checked at every {!spawn}, readable via
      {!cancel_token}), and a body that observes it — or raises
      {!Cancel.Cancelled} itself — settles the ticket cancelled.
      Settlement is one CAS claim on the ticket's state word, in every
      mode: a cancel racing the job's completion resolves the ticket
      exactly once, and so does a job delivered twice by the [Dup] drain
      fault — [await] and [poll] never observe two results. Never
      raises. *)

  val try_submit :
    ?deadline:int ->
    ?cancel:Cancel.t ->
    t ->
    (ctx -> 'a) ->
    'a ticket option
  (** One-shot admission: [None] instead of waiting/shedding when the
      lane is full (whatever the admission policy), the [Adaptive]
      controller is shedding, or the pool is stopping. [Some tk] means admitted. [?deadline] and [?cancel] as
      for {!submit}. *)

  val submit_batch :
    ?deadline:int ->
    ?cancel:Cancel.t ->
    t ->
    (ctx -> 'a) list ->
    'a ticket list
  (** {!submit} each element in order; their [Submit] trace events carry
      the batch size. Each element gets its own ticket and is admitted
      independently (under [Reject], a full lane can reject a suffix of
      the batch); [?deadline]/[?cancel] apply to every element (one
      token may cancel the whole batch). *)

  val submit_retry :
    ?deadline:int ->
    ?cancel:Cancel.t ->
    ?attempts:int ->
    ?backoff_ns:int ->
    ?seed:int ->
    t ->
    (ctx -> 'a) ->
    'a ticket
  (** {!submit}, retrying admission-time rejections with exponential
      backoff and jitter: after the [k]-th rejection the producer
      sleeps [backoff_ns * 2^k] (default base 200µs) plus a jittered
      fraction, then resubmits, up to [attempts] (default 4) total
      tries. The jitter stream is derived from [seed] (default 0), so
      a given seed retries deterministically. Returns the first
      admitted ticket, or the last rejected one when every attempt was
      refused; a stopping pool cuts the loop short. Only admission-time
      rejections retry — [Shed_oldest] evictions and shutdown drains
      happen after this function returned. Raises [Invalid_argument] if
      [attempts < 1]. *)

  val await : 'a ticket -> 'a
  (** Block until the ticket resolves; returns the job's result,
      re-raises its exception (with the backtrace captured where the job
      body raised, on whichever worker ran it), or raises
      {!Submission_rejected} / {!Submission_expired} /
      {!Cancel.Cancelled} for the corresponding drops. Idempotent
      — repeated [await]s of a resolved ticket return the same outcome.
      Do not call from inside task code on a non-server pool: a worker
      blocked on a ticket is a worker not draining the lane.

      The wait has three steps, and allocates nothing. It re-reads the
      ticket a few times. If the calling domain has submitted jobs
      since [tk] and other jobs of the ticket's pool are in flight, it
      then naps (50 µs at a time) and re-reads, for up to 0.5 ms: a
      producer awaiting its own backlog leaves the pool's worker
      settling jobs with no awaiter registered, so it pays no wake-up
      per job. Only then does it block on the pool's own condition,
      and the settle wakes it. A producer with one job outstanding
      blocks right after its re-reads, however busy other producers
      keep the pool. Threads of one domain count as one producer. *)

  val await_for : 'a ticket -> float -> 'a option
  (** [await_for tk seconds]: {!await} with a producer-side timeout.
      [None] if the ticket is still pending when the timeout elapses
      (the job itself is unaffected — await again, or cancel its
      token). Like {!await}, raises for rejected/expired/cancelled
      outcomes that resolve within the window. The span saturates as
      in {!deadline_in}: [infinity] waits for the outcome. *)

  val await_until : 'a ticket -> deadline:int -> 'a option
  (** {!await_for} against an absolute deadline (in
      [Wool_util.Clock.now_ns] nanoseconds). *)

  val poll :
    'a ticket ->
    [ `Pending | `Done of ('a, exn) result | `Rejected | `Cancelled | `Expired ]
  (** Non-blocking status read. [`Done] carries the result or the
      exception (without its backtrace — use {!await} to re-raise
      faithfully). *)

  val deadline_in : float -> int
  (** [deadline_in seconds]: an absolute [~deadline] value that many
      seconds from now. A span of [infinity], or of more than 2{^61} ns
      (73 years), gives [max_int]: no deadline. A negative span gives a
      deadline already past. Raises [Invalid_argument] on NaN. *)
end

type ingress_stats = {
  submitted : int;  (** tickets created: every [submit]/[try_submit] *)
  admitted : int;  (** submissions that won a lane slot *)
  rejected : int;
      (** resolved rejected {e at admission} (full-lane [Reject], an
          [Adaptive] shed, shutdown) *)
  shed : int;
      (** admitted jobs evicted before execution ([Shed_oldest] or the
          {!shutdown} drain) *)
  executed : int;
      (** jobs that ran to completion (a result or an ordinary
          exception) — settlement-based, so a job cancelled mid-run
          counts under [cancelled], not here *)
  expired : int;  (** admitted jobs dropped unrun at their deadline *)
  cancelled : int;
      (** jobs resolved cancelled: dropped unrun at dequeue with their
          token set, or settled by a cooperative mid-run cancel *)
  inflight : int;  (** admitted, not yet settled *)
}
(** Always [submitted = admitted + rejected] and
    [admitted = executed + shed + expired + cancelled + inflight] once
    quiescent ({!Invariants.check} enforces both). *)

val ingress_stats : t -> ingress_stats
(** Exact once quiescent; racy-but-monotone snapshots otherwise. *)

val spawn : ctx -> (ctx -> 'a) -> 'a future
(** Make a task available for stealing (or for later inlining) on the
    calling worker. Raises [Invalid_argument] after {!shutdown} and
    {!Pool_overflow} when the worker's task pool is full (before any
    state changes — see the exception's doc).

    If the worker is running a submission that carried a cancel token
    and that token is set, raises {!Cancel.Cancelled} instead of
    spawning: a cancelled job's task tree stops fanning out at the next
    spawn boundary, and the runtime settles its ticket cancelled. (The
    ambient token follows the job on the worker that drained it; a
    subtree stolen by another worker checks only its own cooperative
    polls.)

    A private spawn reads neither the shutdown state nor the token:
    both close the worker's private fast path instead (a token while
    its job runs, shutdown as soon as {!shutdown} is called), so cancel
    and shutdown are still refused at the next spawn, which takes the
    slow path.

    The task body executes exactly once, in every mode. *)

val join : ctx -> 'a future -> 'a
(** Join with the most recent unjoined [spawn] of this worker. Raises
    [Invalid_argument], before the task pool is touched, unless that
    task is this future (physically): out of LIFO order, a second join
    and another worker's future are all refused.

    If the task body raised — locally or on a thief — the exception is
    re-raised here with the backtrace captured at the original raise
    point ({!Printexc.raise_with_backtrace}); before that, any children
    the failing body had spawned and not yet joined are joined or
    drained, so no orphan task outlives its parent's frame. *)

val call : ctx -> (ctx -> 'a) -> 'a
(** An ordinary call, for symmetry with the paper's CALL. *)

val cancel_token : ctx -> Cancel.t option
(** The cancel token of the submission this worker is currently
    running, if it carried one — for long-running bodies that want to
    poll cooperatively ([Option.iter Cancel.check]) between spawn
    boundaries. *)

val steal_pressure : ctx -> bool
(** Hunger poll for lazy splitters: [true] when thieves appear to be
    after this worker's work, so a running task holding a divisible
    range should carve off a stealable half now rather than keep
    iterating. Direct modes read the trip-wire / thief-activity state
    the task stack already maintains (a sprung publish request, or
    steal-attempt counters that moved since this worker's previous
    poll — failed probes included, which is what lets an all-private
    leaf notice hungry thieves at all). [Locked]/[Clev] have no trip
    wire and report whether thieves failed to take work from this
    worker since its previous poll. Always [false] on a single-worker
    pool. Cheap (at most two atomic loads); call it
    between chunks of leaf work, not per element. Must be called from
    the worker's own task code. *)

(* Introspection *)

val self_id : ctx -> int
val num_workers : t -> int
val mode : t -> mode

val policy : t -> Wool_policy.t
(** The steal policy this pool runs (victim selection + idle backoff);
    [Wool_policy.name (policy pool)] labels it in reports. *)

type pool := t

(** Scheduler counters. Every worker event is counted by the call that
    traces it, into an owner-written table with one count per
    {!Wool_trace.Event.tag} (plus the direct stack's high-water depth):
    with tracing on and nothing dropped, a tag's count is the number of
    its events in the worker rings. Workers count
    without synchronisation; readers see exact values once the pool is
    quiescent (between {!run}s), racy-but-monotone snapshots
    otherwise. *)
module Stats : sig
  type t
  (** One worker's table, or several combined. *)

  val count : t -> Wool_trace.Event.tag -> int
  (** Events of this tag counted — for a worker event, exactly the
      events its ring records when tracing is on. The producer-side
      tags ([Submit]/[Admit]/[Reject]) are never counted here; see
      {!ingress_stats}. *)

  val max_pool_depth : t -> int
  (** Deepest per-worker direct-stack occupancy, in every mode — the §I
      space measure. *)

  (** A key of the stats JSON: a tag's count, the failed steal
      attempts ([Steal_attempt] − [Steal_ok]), or {!max_pool_depth}. *)
  type key = Count of Wool_trace.Event.tag | Failed_steals | Max_pool_depth

  val keys : (string * key) list
  (** The stats JSON's keys, in order: [spawns], [max_pool_depth],
      [inlined_private], [inlined_public], [joins_stolen], [steals],
      [leap_steals], [backoffs], [failed_steals], [publish_events],
      [privatize_events], [injected]. [backoffs] counts §III-A
      delayed-thief back-offs on the thief that backed off; [injected]
      counts the injected jobs a worker drained and ran. *)

  val get : t -> key -> int

  val per_worker : pool -> t array
  (** One table per worker id — the per-event-source view the aggregate
      cannot reconstruct. *)

  val aggregate : pool -> t
  (** Combined over workers since creation or the last {!reset}. *)

  val reset : pool -> unit
  (** Zero the worker counters {e and} the ingress counters
      ({!ingress_stats}), so the {!Invariants.check} balance is relative
      to one reset point. The high-water depth restarts too. Reset a
      quiescent pool for exact figures: a worker that runs tasks
      during the reset may under-report its high-water depth. *)

  val combine : t -> t -> t
  (** Count-wise sum; [max_pool_depth] (a high-water mark) combines with
      [max]. *)

  val of_events : Wool_trace.Event.t array -> t
  (** The table an event stream implies: a count per tag, and the
      deepest [Spawn] descriptor index plus one. Equal, key for key, to
      the counters of the rings it came from when nothing was dropped. *)

  val pp : Format.formatter -> t -> unit

  val to_json : t -> string
  (** A flat JSON object of {!keys} and their values. *)
end

(* Tracing *)

val trace_enabled : t -> bool

val trace_per_worker : t -> Wool_trace.Event.t array array
(** Snapshot each worker's ring, oldest event first. Snapshots are meant
    to be taken at {!run} boundaries: worker 0's ring is then exact; thief
    rings may still gain idle events (steal attempts, naps) concurrently,
    which the ring-level snapshot degrades gracefully around (see
    {!Wool_trace.Ring.snapshot}). After {!shutdown}, everything is exact. *)

val trace_ingress : t -> Wool_trace.Event.t array
(** Producer-side events ([Submit]/[Admit]/[Reject]), recorded in a
    dedicated mutex-guarded ring because submitters are not workers.
    Stamped with the pseudo-worker id [num_workers pool] so they never
    collide with a real worker's stream. (Workers' [Dequeue_injected]
    events live in the per-worker rings.) *)

val trace_events : t -> Wool_trace.Event.t array
(** All workers' events — and the ingress ring's — merged into one
    timestamp-sorted stream (stable: per-source order is preserved among
    equal timestamps). *)

val trace_dropped : t -> int
(** Events lost to ring overflow, summed over workers and the ingress
    ring. *)

val trace_clear : t -> unit
(** Reset all rings (and their drop counts). Call only while quiescent. *)

(* Fault injection *)

val fault_stats : t -> Wool_fault.Stats.t
(** Fault fires so far, summed over workers and the ingress injector
    (site × kind class). Exact while quiescent, like {!Stats}. *)

(** Protocol-invariant checker, for the fault-injection stress harness.
    Only meaningful on a quiescent pool (between {!run}s): everything in
    flight looks like a violation. *)
module Invariants : sig
  val check : t -> string list
  (** Human-readable violations, [[]] when clean. Checks, per worker:
      every direct-stack descriptor EMPTY with [top = bot = 0], its
      payload reset and its result cell empty (over the descriptors the
      stack has grown to); the queued modes' deque empty. Then the ingress: the injection lane empty,
      no in-flight submissions, [submitted = admitted + rejected] and
      [admitted = executed + shed + expired + cancelled]. Then
      globally, in both shapes, the spawn/join/steal counter balance:
      [spawns = inlined + joins_stolen] and [joins_stolen = steals].
      The balance is relative to the last {!Stats.reset}. *)
end

val layout_check : t -> string list
(** Cache-layout regression check: every worker's hot block, its count
    table and the padded pieces of its direct stack (owner block, shared
    atomics, per-descriptor state words) occupy whole cache lines.
    Returns human-readable violations, [[]] when clean. Scans every
    descriptor the stack has grown to; test-path only. *)

(* Stall watchdog *)

val stall_report : t -> string
(** A diagnostic JSON object: pool mode and policy, the ingress state
    (lane occupancy and {!ingress_stats} counters), and per worker the
    progress counter, direct-stack occupancy with live descriptor
    states, the queued modes' deque size, scheduler counters, and the
    tail of the trace ring (when tracing is on), printed by
    {!Wool_trace.Json.to_string}; safe to call
    at any time — concurrent readings are racy snapshots. *)

val set_on_stall : t -> (string -> unit) -> unit
(** Replace the watchdog's report sink (default: print to stderr). The
    callback runs on the watchdog domain; exceptions it raises are
    swallowed. *)

val stalls_fired : t -> int
(** Stall reports emitted since pool creation. The watchdog samples
    whenever the pool is active {e or} has in-flight submissions, so a
    stalled server pool is caught even with no [run] in progress. *)
