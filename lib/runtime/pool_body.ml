(* The pool's source. The build compiles it as [Pool] behind the
   direct-stack body, which it wraps as [module Ds] (see dune), so that
   [Ds.push_private]/[Ds.pop_private] inline into [spawn] and [join]. *)
module Locked_deque = Wool_deque.Locked_deque
module Chase_lev = Wool_deque.Chase_lev
module Inject_queue = Wool_deque.Inject_queue
module Ingress = Wool_deque.Ingress
module Ring = Wool_trace.Ring
module Event = Wool_trace.Event
module Json = Wool_trace.Json
module Select = Wool_policy.Select
module Backoff = Wool_policy.Backoff
module Fault = Wool_fault
module Layout = Wool_util.Layout

exception Pool_overflow = Ds.Pool_overflow

module Mode = Mode
module Cancel = Cancel

(* Re-exported so [Wool.Locked] and friends name the constructors; the
   descriptor module is the source of truth. *)
type mode = Mode.t =
  | Locked
  | Swap_generic
  | Private
  | Clev

type admission = Wool_policy.Admission.t =
  | Block
  | Reject
  | Shed_oldest
  | Adaptive

type publicity = Ds.publicity =
  | All_private
  | All_public
  | Adaptive of int

module Config = struct
  type t = {
    workers : int option;
    mode : mode;
    publicity : publicity;
    seed : int;
    trace : bool;
    trace_capacity : int;
    policy : Wool_policy.t;
    faults : Wool_fault.Plan.t option;
    watchdog_interval_ns : int;
    watchdog_stalls : int;
    injection_capacity : int;
    admission : admission;
    admission_target_ns : int;
    server : bool;
  }

  let default =
    {
      workers = None;
      mode = Private;
      publicity = Adaptive 4;
      seed = 0xC0FFEE;
      trace = false;
      trace_capacity = 1 lsl 16;
      policy = Wool_policy.default;
      faults = None;
      watchdog_interval_ns = 5_000_000;
      watchdog_stalls = 0;
      injection_capacity = 1024;
      admission = Block;
      admission_target_ns = 2_000_000;
      server = false;
    }

  (* Reject nonsensical settings here, with the field named, instead of
     letting them surface as a wedged pool or a mod-by-zero deep in the
     ingress path. The capacities are rounded up to a power of two, and
     their arrays allocated, at pool creation: 2^30 bounds both. *)
  let max_capacity = 1 lsl 30

  let validate c =
    let bad fmt = Printf.ksprintf invalid_arg ("Wool.Config: " ^^ fmt) in
    (match c.workers with
    | Some n when n <= 0 -> bad "workers must be positive (got %d)" n
    | Some _ | None -> ());
    (match c.publicity with
    | Adaptive w when w <= 0 ->
        bad "publicity Adaptive window must be positive (got %d)" w
    | All_private | All_public | Adaptive _ -> ());
    if c.trace_capacity <= 0 || c.trace_capacity > max_capacity then
      bad "trace_capacity must be in 1..2^30 (got %d)" c.trace_capacity;
    if c.watchdog_stalls < 0 then
      bad "watchdog_stalls must be non-negative (got %d)" c.watchdog_stalls;
    if c.watchdog_stalls > 0 && c.watchdog_interval_ns <= 0 then
      bad "watchdog_interval_ns must be positive when the watchdog is on (got %d)"
        c.watchdog_interval_ns;
    if c.injection_capacity <= 0 || c.injection_capacity > max_capacity then
      bad "injection_capacity must be in 1..2^30 (got %d)" c.injection_capacity;
    if c.admission = Adaptive && c.admission_target_ns <= 0 then
      bad "admission_target_ns must be positive with Adaptive admission \
           (got %d)"
        c.admission_target_ns;
    c

  let make ?workers ?mode ?publicity ?seed ?trace ?trace_capacity ?policy
      ?faults ?watchdog_interval_ns ?watchdog_stalls ?injection_capacity
      ?admission ?admission_target_ns ?server () =
    let ov o d = Option.value o ~default:d in
    validate
      {
        workers;
        mode = ov mode default.mode;
        publicity = ov publicity default.publicity;
        seed = ov seed default.seed;
        trace = ov trace default.trace;
        trace_capacity = ov trace_capacity default.trace_capacity;
        policy = ov policy default.policy;
        faults;
        watchdog_interval_ns =
          ov watchdog_interval_ns default.watchdog_interval_ns;
        watchdog_stalls = ov watchdog_stalls default.watchdog_stalls;
        injection_capacity = ov injection_capacity default.injection_capacity;
        admission = ov admission default.admission;
        admission_target_ns = ov admission_target_ns default.admission_target_ns;
        server = ov server default.server;
      }
end

(* Task-pool slots per worker, in every mode: the cap the direct stack's
   slot array grows to. A queued pool's deque holds that stack's slot
   indices, so the stack overflows first. *)
let capacity = 65_536

(* One nap unit of the idle backoff: an idle thief sleeps this long per
   [Backoff.Nap] factor, which keeps over-subscribed pools live. A
   server pool's worker with no job in flight polls the ingress up to
   [park_spin_ns] (0.5 ms, ten nap units), then parks on it instead
   ([idle_backoff]): a request arriving within the poll pays no
   wake-up. *)
let idle_nap_ns = 50_000
let park_spin_ns = 500_000

(* A finished task's outcome, its type hidden: a result cell's value.
   Each slot of the direct stack has one cell ([Ds.set_result]). *)
type outcome = Wool_deque.Task_state.outcome

type worker = {
  id : int;
  pool : pool;
  dstack : packed Ds.t;
  queue : queue; (* Locked/Clev only; [No_queue] in the direct modes *)
  rng : Wool_util.Rng.t;
  sel : Select.state;
  bo : Backoff.state;
  (* tracing: [tr_on] is immutable, so the disabled case is one predictable
     branch on the hot path; each worker writes only its own ring *)
  tr_on : bool;
  ring : Ring.t;
  (* fault injection follows the same immutable-bool discipline *)
  fl_on : bool;
  inj : Fault.Injector.t;
  inj_interfere : Ds.steal_phase -> bool;
      (* [Ds.steal] interference hook over [inj], built once — the steal
         attempt path must not allocate a closure per call *)
  counts : int array;
      (* the count table: the direct stack's high-water depth at
         [depth_slot], then one count per [Event.tag] ([slot]). Only
         [count] (and [spawn_direct], for the depth) writes it, on the
         owner; readers take racy int loads. Padded like [hot]. *)
  hot : worker_hot;
      (* this worker's frequently written fields, in their own
         cache-line-padded block: the rest of this record is immutable
         after [make_worker], so its lines stay read-shared among thieves
         (who chase [pool]/[dstack] pointers through it on every steal
         attempt) instead of bouncing on every counter bump *)
}

(* Worker-written working set. Only the owner writes (the watchdog
   takes racy int loads); padding keeps those writes from invalidating
   the read-shared [worker] record or a neighbouring worker's block. *)
and worker_hot = {
  (* scheduler-transition counter bumped on the wait paths (idle steal
     loop, leapfrog) where the spawn count does not advance; the watchdog
     samples [progress + spawns] so the spawn/join fast path carries no
     extra store. *)
  mutable progress : int;
  mutable ambient_cancel : Cancel.t option;
  (* the cancel token of the injected job this worker is currently
     running, if any: [spawn_slow] checks it so a cancelled submission's
     task tree stops fanning out at the next spawn boundary (a token
     closes the fast window, see [refresh_ceiling]). Owner-written,
     owner-read — never shared. *)
}

(* The per-worker task deque of the two queued modes, built only in
   them. Every mode keeps its tasks in [dstack]; a queued pool's stack is
   [All_private], and this deque publishes the indices of its slots. *)
and queue =
  | No_queue
  | Locked_q of Locked_deque.t
  | Clev_q of int Chase_lev.t

and pool = {
  pmode : mode;
  (* the task-pool shape, fixed at creation: the hot paths branch on
     these immutable bools, as they do on [tr_on]/[fl_on] *)
  direct : bool; (* tasks live in [dstack] (Swap_generic, Private) *)
  generic : bool; (* Swap_generic: inlined joins go through [run_body] *)
  policy : Wool_policy.t;
  trace_on : bool;
  faults : Fault.Plan.t option;
  mutable workers : worker array;
  mutable domains : unit Domain.t list;
  (* lifecycle + watchdog *)
  mutable stopped : bool;
  active : bool Atomic.t; (* a [run] is in progress *)
  watchdog_interval_ns : int;
  watchdog_stalls : int;
  mutable on_stall : string -> unit;
  stall_reports : int Atomic.t;
  mutable wd : unit Domain.t option;
  (* ingress: external submission *)
  server : bool; (* worker 0 is a spawned domain, not the caller *)
  admission : admission;
  ingress : worker Ingress.t;
      (* the lane, the ledger, the Adaptive controller, and the pool's
         stop flag, which admission re-checks *)
  probe : probe;
}

(* Producer-side instrumentation: one trace ring and one fault injector
   shared by every producer domain. The mutex guards only these two —
   both cold, gated by the same immutable on/off discipline as the
   per-worker instrumentation. *)
and probe = {
  ig_lock : Mutex.t;
  ig_trace : bool;
  ig_ring : Ring.t; (* Submit/Admit/Reject, stamped worker = nworkers *)
  ig_fl_on : bool;
  ig_inj : Fault.Injector.t;
}

(* A task as the pools hold it: its closure, the result type hidden and
   unboxed; whoever takes the task unpacks it and calls [run_body]. *)
and packed = P : (worker -> 'a) -> packed [@@unboxed]

type t = pool
type ctx = worker

type 'a future = ctx -> 'a (* the closure [spawn] pushed *)

type 'a ticket = 'a Ingress.ticket

exception Submission_rejected
exception Submission_expired

let dummy_task (_ : worker) = ()

let dummy_packed = P dummy_task

(* The count table's slots: the high-water depth first, then one per
   tag. [tag_to_int] is the identity, so a constant tag's slot is a
   constant; the depth's slot is one too, which [Event.n_tags] (opaque
   across modules) could not be. *)
let depth_slot = 0
let[@inline] slot tag = 1 + Event.tag_to_int tag
let table_slots = 1 + Event.n_tags

let[@inline] count w tag =
  let i = slot tag in
  Array.unsafe_set w.counts i (Array.unsafe_get w.counts i + 1)

(* Every worker event goes through here, or through [count] on the
   private fast pair, which an untraced pool alone takes: one call
   counts it and, when tracing, records it, so a counter and its trace
   event cannot drift. *)
let[@inline] note w tag ~a ~b =
  count w tag;
  if w.tr_on then
    Ring.record w.ring ~ts:(Wool_util.Clock.now_ns ()) ~tag ~a ~b

(* The event of an inlining [Ds.pop] code. *)
let[@inline] inline_tag code =
  if code = Ds.inline_public then Event.Inline_public else Event.Inline_private

(* The cap on the stack's fast windows ([Ds.set_ceiling]), which folds
   in every gate of the private pair. It is the high-water depth, so a
   spawn that deepens the stack takes [spawn_slow], which records it;
   and it is 0, sending every spawn and join to the slow path, while
   any gate is closed: the pool is shut down, the worker runs a job
   with a cancel token, faults or tracing are on, or the pool is queued
   or generic. Owner only, since it reads the token: called where one of
   these changes, at [make_worker], [exec_job]'s token swap and
   [spawn_direct]. [shutdown] and [Stats.reset], which may run on
   another domain, close the windows with [Ds.close] instead. *)
let refresh_ceiling w =
  let p = w.pool in
  let closed =
    p.stopped
    || Option.is_some w.hot.ambient_cancel
    || w.fl_on || w.tr_on || (not p.direct) || p.generic
  in
  Ds.set_ceiling w.dstack
    (if closed then 0 else Array.unsafe_get w.counts depth_slot)

(* [exec_job]'s token swap. A tokenless job on a tokenless worker, as
   every [run] is, changes nothing. *)
let set_ambient w token =
  if token != w.hot.ambient_cancel then begin
    w.hot.ambient_cancel <- token;
    refresh_ceiling w
  end

(* ---- fault-injection hooks ----

   Every hook is guarded by the immutable [fl_on] at the call site, so a
   pool built without [Config.faults] pays one predictable branch per
   site — the same cost model as the trace ring. *)

(* The one fault decoder: act out a fire — a [Delay]/[Stall] spins here
   — and say whether the site's own kind fired, the one [Kind.valid_at]
   admits there besides the delays ([Fail_steal] at the steal sites,
   [Raise_exn] at [Spawn], [Dup] at [Drain]). *)
let decode = function
  | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) ->
      Fault.Injector.spin n;
      false
  | Some _ -> true
  | None -> false

let[@inline] trip inj site = decode (Fault.Injector.fire inj site)

(* Sites where only delays can fire. *)
let fault_delay w site = ignore (trip w.inj site : bool)

(* The direct stack exposes its protocol windows ([Pre_cas]/[Post_cas]/
   [Trip]) through [Ds.steal]'s interference hook, so a delay injected
   at [Pre_steal_cas] genuinely recreates the §III-A delayed-thief ABA
   rather than merely pausing before the call; a [Fail_steal] abandons
   the attempt. The queued modes, which have no protocol window of
   their own, call it with [Pre_cas] before touching the victim's queue.
   Closed over the injector alone so one closure per worker serves every
   attempt. *)
let direct_interfere inj phase =
  trip inj
    (match phase with
    | Ds.Pre_cas -> Fault.Site.Pre_steal_cas
    | Ds.Post_cas -> Fault.Site.Post_steal_cas
    | Ds.Trip -> Fault.Site.Trip_wire)

(* ---- ingress instrumentation ----

   Producer-side events and faults share one ring / one injector across
   all producer domains, serialized by [ig_lock]. Both are cold paths
   (gated on the immutable [trace_on] / [ig_fl_on] bools), so the lock
   never appears in an untraced, unfaulted submit. *)

let ig_record ig tag ~a ~b =
  if ig.ig_trace then begin
    Mutex.lock ig.ig_lock;
    Ring.record ig.ig_ring ~ts:(Wool_util.Clock.now_ns ()) ~tag ~a ~b;
    Mutex.unlock ig.ig_lock
  end

let ig_fault ig site =
  if ig.ig_fl_on then begin
    Mutex.lock ig.ig_lock;
    let k = Fault.Injector.fire ig.ig_inj site in
    Mutex.unlock ig.ig_lock;
    (* spin outside the lock: the fault delays this producer, not all *)
    ignore (decode k : bool)
  end

(* The ingress body's trace/fault hook. The [Admit] fault site sits
   between a push and the stop re-check, stretching the window a racing
   shutdown must not slip through. *)
let ig_note ig = function
  | Ingress.Admit ->
      ig_fault ig Fault.Site.Admit;
      ig_record ig Event.Admit ~a:(-1) ~b:(-1)
  | Ingress.Enter ->
      ig_record ig Event.Submit ~a:(-1) ~b:(-1);
      ig_record ig Event.Admit ~a:(-1) ~b:(-1)
  | Ingress.Refuse | Ingress.Drop -> ig_record ig Event.Reject ~a:(-1) ~b:(-1)

(* The ingress body's dequeue-time fault hook, on the draining worker's
   injector. *)
let ig_check_fault w = function
  | Ingress.Cancel -> if w.fl_on then fault_delay w Fault.Site.Cancel
  | Ingress.Expire -> if w.fl_on then fault_delay w Fault.Site.Expire

let idle_backoff w =
  Domain.cpu_relax ();
  match Backoff.on_failure w.bo with
  | Backoff.Relax -> ()
  | Backoff.Yield ->
      (* relinquish the timeslice without the full nap *)
      Unix.sleepf 0.
  | Backoff.Nap factor ->
      (* a server pool's worker with nothing in flight polls for the next
         admission, then waits for it instead of polling nap by nap *)
      if not (w.pool.server && Ingress.poll w.pool.ingress park_spin_ns)
      then begin
        if w.fl_on then fault_delay w Fault.Site.Nap_entry;
        note w Event.Nap_enter ~a:factor ~b:(-1);
        if not (w.pool.server && Ingress.park w.pool.ingress) then
          Unix.sleepf (float_of_int (idle_nap_ns * factor) *. 1e-9);
        note w Event.Nap_exit ~a:(-1) ~b:(-1)
      end

(* ---- the queued modes' deque (Locked/Clev) ----

   Push, pop and steal run only in a queued pool, whose every worker has
   a deque. *)

let q_push w index =
  match w.queue with
  | Locked_q q -> Locked_deque.push q
  | Clev_q q -> Chase_lev.push q index
  | No_queue -> assert false

let q_pop w =
  match w.queue with
  | Locked_q q -> Locked_deque.pop q
  | Clev_q q -> ( match Chase_lev.pop q with Some i -> i | None -> -1)
  | No_queue -> assert false

let q_steal victim =
  match victim.queue with
  | Locked_q q -> Locked_deque.steal q
  | Clev_q q -> (
      match Chase_lev.steal q with
      | `Stolen index -> index
      | `Empty | `Retry -> -1)
  | No_queue -> assert false

let q_size w =
  match w.queue with
  | Locked_q q -> Locked_deque.size q
  | Clev_q q -> Chase_lev.size q
  | No_queue -> 0

let select_victim w =
  match Select.next w.sel ~rng:w.rng ~n:(Array.length w.pool.workers) with
  | None -> None
  | Some v -> Some w.pool.workers.(v)

(* The value of [fut]'s outcome [r], or its exception re-raised with the
   backtrace of the raise, possibly on another worker. The runtime's one
   cast: every caller takes [r] from the cell of the slot whose task it
   has checked is physically [fut], so [r] came from running this very
   closure. If that closure had two typings it would be polymorphic in
   its result, and whatever it returns inhabits both. An index check
   could not carry this: a stale future at a reused depth would pass it
   and cast another spawn's result. *)
let value_exn (_ : 'a future) (r : outcome) : 'a =
  match r with
  | Ok v -> Obj.obj v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Run a task body to its outcome — on an exception, after unwinding the
   body's own spawns, with the backtrace captured at the raise point.
   Never raises. The entry checkpoint of this worker's outstanding
   spawns is its stack depth, in both shapes. *)
let rec run_body : 'a. worker -> 'a future -> outcome =
 fun wk fut ->
  let depth = Ds.depth wk.dstack in
  match fut wk with
  | v -> Ok (Obj.repr v)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unwind wk ~depth;
      Error (e, bt)

(* ---- exception unwinding ----

   When a task body raises between spawn and join, its outstanding
   children must not be abandoned: a queued child could be picked up by
   a thief after its parent's frame is gone, and a direct-stack child
   would corrupt the strict LIFO discipline for every frame below. So
   the exception path joins-or-drains everything spawned since the
   failing body's entry checkpoint before the exception propagates.
   Drained results (and any exceptions of the children themselves) are
   discarded — the parent's exception wins. *)
and unwind w ~depth =
  while Ds.depth w.dstack > depth do
    let (P fut) = Ds.top_payload w.dstack in
    if w.pool.direct then begin
      let code = Ds.pop_slow w.dstack in
      let index = Ds.depth w.dstack in
      if code < Ds.stolen_finished then begin
        note w (inline_tag code) ~a:index ~b:(-1);
        ignore (run_body w fut : outcome)
      end
      else begin
        join_stolen w ~code ~index;
        ignore (Ds.take_result w.dstack ~index : outcome)
      end
    end
    else ignore (take_queued w fut : outcome)
  done

(* Queued join of the newest slot, whose task is [fut]: pop its index
   back off the deque and run it here, or wait out the thief that took
   it; the outcome, its cell left empty. A stolen slot stays pushed until
   the thief's DONE lands, so the spawns made while waiting go above it
   instead of overwriting the task the thief reads. A [Locked] range
   stays above it too, at [\[index + 1, index + 1)], until the slot is
   released and the range rewinds to it. *)
and take_queued : 'a. worker -> 'a future -> outcome =
 fun w fut ->
  let index = Ds.depth w.dstack - 1 in
  match q_pop w with
  | -1 ->
      (* No thief identity in the queued modes: steal per the policy
         while waiting. This is the strategy whose buried-join behaviour
         §I discusses. *)
      note w Event.Join_stolen ~a:index ~b:(-1);
      while not (Ds.stolen_done w.dstack ~index) do
        ignore (steal_idle w : bool)
      done;
      Ds.release w.dstack ~index;
      (match w.queue with
      | Locked_q q -> Locked_deque.rewind q index
      | Clev_q _ | No_queue -> ());
      Ds.take_result w.dstack ~index
  | i ->
      (* every newer spawn is already joined and thieves take the oldest
         first, so an index still in the deque is the newest slot's *)
      assert (i = index);
      ignore (Ds.pop_slow w.dstack : int);
      note w Event.Inline_public ~a:index ~b:(-1);
      run_body w fut

(* ---- steal attempts ---- *)

(* Attempt to steal one task from [victim] and run it. Whichever shape
   handed over the slot, the thief reads the task from the victim's
   stack and hands the outcome back through the slot's result cell and
   DONE. [Steal_ok] is noted *before* the task runs: the count must be
   ordered before the DONE store the owner waits on, or a quiescent
   invariant check could observe the join without the steal. *)
and steal_once w ~(victim : worker) =
  note w Event.Steal_attempt ~a:(-1) ~b:victim.id;
  let index =
    if w.pool.direct then steal_direct w ~victim else steal_queued w ~victim
  in
  index >= 0
  && begin
       note w Event.Steal_ok ~a:index ~b:victim.id;
       let (P fut) = Ds.payload victim.dstack ~index in
       let r = run_body w fut in
       (* The thief's stack is back where the steal found it: clear what
          the stolen task left above it. Before the DONE store, like the
          count above, so that a pool whose root job has returned holds
          no dead payload. The outcome's cell is written first too: the
          DONE store publishes it. *)
       Ds.sweep w.dstack;
       Ds.set_result victim.dstack ~index r;
       Ds.complete_steal victim.dstack ~index;
       Backoff.on_success w.bo;
       Select.on_success w.sel ~victim:victim.id;
       true
     end

(* The index of the slot taken from [victim]'s stack, or -1. *)
and steal_direct w ~victim =
  let result =
    if w.fl_on then
      Ds.steal victim.dstack ~thief:w.id ~interfere:w.inj_interfere
    else Ds.steal victim.dstack ~thief:w.id
  in
  match result with
  | Ds.Stolen_task (_, index) -> index
  | Ds.Backoff ->
      note w Event.Steal_backoff ~a:(-1) ~b:victim.id;
      -1
  | Ds.Fail -> -1

(* The index taken from [victim]'s deque, or -1. A failed attempt
   counts against the victim's stack, as a failed [Ds.steal] does: that
   count is its owner's steal-pressure signal. *)
and steal_queued w ~victim =
  let index =
    if w.fl_on && w.inj_interfere Ds.Pre_cas then -1 else q_steal victim
  in
  if index < 0 then Ds.note_miss victim.dstack;
  index

(* A direct join whose task [pop] found stolen ([code] is the thief's id,
   or [Ds.stolen_finished]): wait, then free the slot. *)
and join_stolen w ~code ~index =
  note w Event.Join_stolen ~a:index ~b:code;
  Select.stolen_by w.sel ~thief:code;
  if code >= 0 then leapfrog w ~victim_id:code ~index;
  Ds.reclaim w.dstack ~index

(* Leapfrogging (§I, Wagner & Calder): while blocked on a task stolen by
   [victim_id], steal only from that worker. Any task acquired this way is
   work we would have executed ourselves had there been no steal. *)
and leapfrog w ~victim_id ~index =
  let victim = w.pool.workers.(victim_id) in
  Ds.hold w.dstack ~index;
  while not (Ds.stolen_done w.dstack ~index) do
    w.hot.progress <- w.hot.progress + 1;
    if w.fl_on then fault_delay w Fault.Site.Leapfrog;
    if steal_once w ~victim then begin
      (* one per successful attempt: steals made by nested leapfrogs
         inside the stolen task count themselves *)
      note w Event.Leap_steal ~a:(-1) ~b:victim_id
    end
    else idle_backoff w
  done

(* One unpinned steal attempt against a policy-chosen victim, backing off
   on failure. This is the idle loop body and the Locked/Clev blocked-join
   strategy. The injection lane is checked first: an idle worker is
   exactly the consumer the ingress wants, and a successful drain resets
   the backoff like a successful steal. *)
and steal_idle w =
  w.hot.progress <- w.hot.progress + 1;
  if drain_injected w then begin
    Backoff.on_success w.bo;
    true
  end
  else
    match select_victim w with
    | None ->
        idle_backoff w;
        false
    | Some victim ->
        let ran = steal_once w ~victim in
        if not ran then begin
          Select.on_failure w.sel;
          idle_backoff w
        end;
        ran

(* Try to pop one injected job off the pool's ingress lane and run it,
   if the ingress says it must run: a cancelled or expired job is
   settled there, without a [Dequeue_injected] note, which the trace
   oracle and the [injected] counter equate with executions. Called
   only from the idle loop — after the worker has run out of local work,
   before it turns to remote steals — so the private-task fast path
   never sees the lane. *)
and drain_injected w =
  let ig = w.pool.ingress in
  let dup = w.fl_on && trip w.inj Fault.Site.Drain in
  match Inject_queue.try_pop ig.lane with
  | Some job ->
      if Ingress.must_run ig w job then exec_job w job ~dup;
      true
  | None -> false

(* Run a job on [w] and settle its ticket; never raises. It runs twice
   when [dup] (the [Dup] drain fault: an at-least-once delivery that the
   ticket's one claim must absorb). Its token is the ambient token of
   its task tree, which every [spawn] checks. As in [run_body], a job
   that raises first unwinds its own spawns; a [Cancel.Cancelled]
   escaping the body settles the ticket cancelled, not failed. *)
and exec_job w (J j) ~dup =
  note w Event.Dequeue_injected ~a:(-1) ~b:(-1);
  let saved = w.hot.ambient_cancel in
  set_ambient w j.token;
  for _ = 0 to Bool.to_int dup do
    let depth = Ds.depth w.dstack in
    let outcome =
      match j.fn w with
      | v -> Ingress.Done (Ok v)
      | exception Cancel.Cancelled ->
          unwind w ~depth;
          Ingress.Cancelled
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          unwind w ~depth;
          Ingress.Done (Error (e, bt))
    in
    (* The stack is back at its base: clear the dead payloads the job's
       joins left (see [Ds.sweep]). Before the settlement, which may
       wake an awaiter that then checks a quiescent pool. *)
    Ds.sweep w.dstack;
    ignore (Ingress.settle w.pool.ingress j.tk outcome : bool)
  done;
  set_ambient w saved

let worker_loop w =
  while not (Atomic.get w.pool.ingress.stop) do
    ignore (steal_idle w : bool)
  done

(* ---- spawn ---- *)

(* [spawn_slow]'s push onto the direct stack: the whole push, its event
   and the high-water depth. *)
let[@inline] spawn_direct w (fut : 'a future) : 'a future =
  let index = Ds.depth w.dstack in
  (* the push may raise [Pool_overflow]; only spawns that happened are
     noted, so an overflow leaves the spawn/join balance intact for
     [Invariants.check] *)
  Ds.push_slow w.dstack (P fut);
  note w Event.Spawn ~a:index ~b:(-1);
  if index >= Array.unsafe_get w.counts depth_slot then begin
    Array.unsafe_set w.counts depth_slot (index + 1);
    refresh_ceiling w
  end;
  fut

(* A queued spawn is a direct one on the [All_private] stack, whose
   slot index the deque then publishes. The stack overflows first, so
   the deque's push cannot fail. *)
let spawn_queued w (fut : 'a future) : 'a future =
  let index = Ds.depth w.dstack in
  ignore (spawn_direct w fut : 'a future);
  q_push w index;
  fut

(* ---- join ---- *)

let not_newest () = invalid_arg "Wool.join: not this worker's newest spawn"

(* [join_slow]'s direct join. *)
let[@inline] join_direct w fut =
  let code = Ds.pop_slow w.dstack in
  let index = Ds.depth w.dstack in
  if code < Ds.stolen_finished then begin
    note w (inline_tag code) ~a:index ~b:(-1);
    if w.pool.generic then begin
      (* Generic join: run the descriptor's payload into its result cell
         and read it back, as a runtime without task-specific join
         functions must. *)
      Ds.set_result w.dstack ~index (run_body w fut);
      value_exn fut (Ds.take_result w.dstack ~index)
    end
    else
      (* Task-specific join: direct call of the typed task function.
         An exception here unwinds in the caller's [run_body]. *)
      fut w
  end
  else begin
    join_stolen w ~code ~index;
    value_exn fut (Ds.take_result w.dstack ~index)
  end

let join_queued w fut = value_exn fut (take_queued w fut)

(* ---- the public task operations ----

   A private pair takes [spawn]'s and [join]'s fast paths, each decided
   by one test of [top] against the stack's fast window, which
   [refresh_ceiling] closes while any gate is: no flag, token or shape
   is read there. Everything else goes through [spawn_slow] and
   [join_slow], out of line, which do the whole of each operation. *)

(* The [Spawn] fault site: a [Raise_exn] replaces the body, so the fault
   surfaces exactly like a task exception, exercising the full
   unwind/propagation path. *)
let spawn_fault w fn =
  if trip w.inj Fault.Site.Spawn then begin
    let e = Fault.Injector.injected_exn w.inj Fault.Site.Spawn in
    fun _ -> raise e
  end
  else fn

let[@inline never] spawn_slow w fn =
  if w.pool.stopped then invalid_arg "Wool.spawn: pool is shut down";
  (* a cancelled submission's task tree stops fanning out here instead
     of racing the fan-out to completion *)
  (match w.hot.ambient_cancel with
  | Some c -> Cancel.check c
  | None -> ());
  let fn = if w.fl_on then spawn_fault w fn else fn in
  if w.pool.direct then spawn_direct w fn else spawn_queued w fn

let spawn (w : ctx) (fn : ctx -> 'a) : 'a future =
  if Ds.push_private w.dstack (P fn) then begin
    count w Event.Spawn;
    fn
  end
  else spawn_slow w fn

let[@inline never] join_slow w fut =
  if w.fl_on then fault_delay w Fault.Site.Join;
  (* The one check, in both shapes, before the task pool is touched:
     [fut] is the closure in this worker's newest slot ([P fut] is [fut],
     unboxed). It refuses an out-of-order join, a second join and another
     worker's future, and it makes [value_exn]'s cast sound. *)
  if not (Ds.depth w.dstack > 0 && Ds.top_payload w.dstack == P fut) then
    not_newest ();
  if w.pool.direct then join_direct w fut else join_queued w fut

(* [Ds.pop_private] checks [fut] as [join_slow] does: the newest slot
   holds it, physically. *)
let join (w : ctx) fut =
  if Ds.pop_private w.dstack (P fut) then begin
    count w Event.Inline_private;
    fut w
  end
  else join_slow w fut

let call (w : ctx) fn = fn w
let cancel_token (w : ctx) = w.hot.ambient_cancel

(* Hunger poll for lazy splitters (Wool_ropes): should the running task
   carve off stealable work right now? Every mode reads the trip wire /
   thief-activity state the worker's stack maintains (see
   {!Ds.steal_pressure}). A queued pool's stack is [All_private]: its
   trip wire never springs and no [Ds.steal] counts a steal on it, so
   the poll reports whether thieves failed to take work from this worker
   since the previous poll ([Ds.note_miss]). *)
let steal_pressure (w : ctx) = Ds.steal_pressure w.dstack

let self_id w = w.id
let num_workers pool = Array.length pool.workers
let mode pool = pool.pmode
let policy pool = pool.policy

(* ---- the ingress path (external submission): [Submit] maps the
   public surface onto [Ingress], the model-checked protocol body ---- *)

module Submit = struct
  type nonrec 'a ticket = 'a ticket

  (* A settled ticket as [await], [await_until] and [run] report it; a
     job's exception is re-raised with the backtrace of its raise. *)
  let outcome : 'a Ingress.state -> 'a = function
    | Done (Ok v) -> v
    | Done (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Rejected -> raise Submission_rejected
    | Cancelled -> raise Cancel.Cancelled
    | Expired -> raise Submission_expired
    | Pending | Claimed -> invalid_arg "Wool: ticket not settled"

  let is_pending tk = Ingress.peek tk == Pending

  let await tk =
    match Ingress.peek tk with
    | Pending | Claimed ->
        Ingress.W.block is_pending tk;
        outcome (Ingress.peek tk)
    | st -> outcome st

  let poll tk =
    match Ingress.peek tk with
    | Done (Ok v) -> `Done (Ok v)
    | Done (Error (e, _)) -> `Done (Error e)
    | Rejected -> `Rejected
    | Cancelled -> `Cancelled
    | Expired -> `Expired
    | Pending | Claimed -> `Pending

  (* Timed await: OCaml's [Condition] has no timed wait, so this is a
     poll loop with exponentially growing naps (1µs → 1ms cap) — cheap
     enough for producer-side timeouts, which are milliseconds by
     nature. *)
  let await_until tk ~deadline =
    let rec go nap =
      match Ingress.peek tk with
      | Pending | Claimed ->
          if Wool_util.Clock.now_ns () >= deadline then None
          else begin
            Unix.sleepf (float_of_int nap *. 1e-9);
            go (min (nap * 2) 1_000_000)
          end
      | st -> Some (outcome st)
    in
    go 1_000

  (* [int_of_float] is undefined past [max_int], so the span saturates
     first: past 2^61 ns (73 years), and at [infinity], the deadline is
     [max_int] — none. *)
  let deadline_in span_s =
    if Float.is_nan span_s then invalid_arg "Wool.Submit: the span is NaN";
    let ns = span_s *. 1e9 in
    if ns >= 0x1p61 then max_int
    else Wool_util.Clock.now_ns () + int_of_float (Float.max ns (-0x1p61))

  let await_for tk span_s = await_until tk ~deadline:(deadline_in span_s)

  (* One submission through [Ingress.admit]; whether it was admitted. *)
  let admit ?(deadline = max_int) ?cancel pool ~batch ~admission tk fn =
    ig_fault pool.probe Fault.Site.Submit;
    ig_record pool.probe Event.Submit ~a:(-1) ~b:batch;
    Ingress.admit pool.ingress ~admission
      (J { fn; tk; deadline; token = cancel; enq_ns = pool.ingress.now () })

  let submit_on ?deadline ?cancel pool ~batch fn =
    let tk = Ingress.ticket () in
    let admission = pool.admission in
    ignore (admit ?deadline ?cancel pool ~batch ~admission tk fn);
    tk

  let submit ?deadline ?cancel pool fn =
    submit_on ?deadline ?cancel pool ~batch:(-1) fn

  let submit_batch ?deadline ?cancel pool fns =
    let batch = List.length fns in
    List.map (submit_on ?deadline ?cancel pool ~batch) fns

  (* One-shot admission is admission under [Reject]. *)
  let try_submit ?deadline ?cancel pool fn =
    let tk = Ingress.ticket () in
    if admit ?deadline ?cancel pool ~batch:(-1) ~admission:Reject tk fn
    then Some tk
    else None

  (* Retry a rejected admission with exponential backoff and
     seed-derived jitter. Only a synchronously-rejected ticket retries
     (admission under [Reject]/[Adaptive] resolves before [submit]
     returns); anything the pool actually admitted is returned as-is,
     and a stopping pool cuts the loop short. Deterministic for a given
     seed — the jitter stream is a private [Rng], not wall-clock
     noise. *)
  let submit_retry ?deadline ?cancel ?(attempts = 4) ?(backoff_ns = 200_000)
      ?(seed = 0) pool fn =
    if attempts < 1 then
      invalid_arg "Wool.Submit.submit_retry: attempts must be at least 1";
    let rng = Wool_util.Rng.make (seed lxor 0x5EED5) in
    let rec go k =
      let tk = submit ?deadline ?cancel pool fn in
      match Ingress.peek tk with
      | Rejected
        when k + 1 < attempts
             && not (pool.stopped || Atomic.get pool.ingress.stop) ->
          let base = backoff_ns * (1 lsl min k 20) in
          let jitter = Wool_util.Rng.int rng ((base / 2) + 1) in
          Unix.sleepf (float_of_int (base + jitter) *. 1e-9);
          go (k + 1)
      | _ -> tk
    in
    go 0
end

type ingress_stats = {
  submitted : int;
  admitted : int;
  rejected : int;
  shed : int;
  executed : int;
  expired : int;
  cancelled : int;
  inflight : int;
}

let ingress_stats pool =
  let ig = pool.ingress in
  {
    submitted = Atomic.get ig.submitted;
    admitted = Atomic.get ig.admitted;
    rejected = Atomic.get ig.rejected;
    shed = Atomic.get ig.shed;
    (* settlement-based, not drain-based: a job cancelled mid-run was
       drained but did not execute to completion — it counts under
       [cancelled], and only under [cancelled] *)
    executed = Atomic.get ig.completed;
    expired = Atomic.get ig.expired;
    cancelled = Atomic.get ig.cancelled;
    inflight = Atomic.get ig.inflight;
  }

module Stats = struct
  type t = int array (* [table_slots] long, laid out like [counts] *)

  let count s tag = s.(slot tag)
  let max_pool_depth s = s.(depth_slot)

  type key = Count of Event.tag | Failed_steals | Max_pool_depth

  (* The stats JSON: its keys in order, and where each reads the table.
     The names and their order are a contract ([benchmark/] reads them). *)
  let keys =
    [
      ("spawns", Count Event.Spawn);
      ("max_pool_depth", Max_pool_depth);
      ("inlined_private", Count Event.Inline_private);
      ("inlined_public", Count Event.Inline_public);
      ("joins_stolen", Count Event.Join_stolen);
      ("steals", Count Event.Steal_ok);
      ("leap_steals", Count Event.Leap_steal);
      ("backoffs", Count Event.Steal_backoff);
      ("failed_steals", Failed_steals);
      ("publish_events", Count Event.Publish);
      ("privatize_events", Count Event.Privatize);
      ("injected", Count Event.Dequeue_injected);
    ]

  let get s = function
    | Count tag -> count s tag
    | Failed_steals -> count s Event.Steal_attempt - count s Event.Steal_ok
    | Max_pool_depth -> max_pool_depth s

  (* [max_pool_depth] is a high-water mark, not a flow; it combines with
     [max], every count with [+]. *)
  let combine a b =
    Array.init table_slots (fun i ->
        if i = depth_slot then max a.(i) b.(i) else a.(i) + b.(i))

  let of_events evs =
    let s = Array.make table_slots 0 in
    Array.iter
      (fun (e : Event.t) ->
        s.(slot e.tag) <- s.(slot e.tag) + 1;
        if e.tag = Event.Spawn then
          s.(depth_slot) <- max s.(depth_slot) (e.a + 1))
      evs;
    s

  let of_worker w = Array.sub w.counts 0 table_slots
  let per_worker pool = Array.map of_worker pool.workers

  let aggregate pool =
    Array.fold_left
      (fun acc w -> combine acc (of_worker w))
      (Array.make table_slots 0) pool.workers

  let reset pool =
    Array.iter
      (fun w ->
        Array.fill w.counts 0 table_slots 0;
        (* The high-water depth restarts: close the fast windows, so
           the owner's next spawn records the mark and reopens them
           ([spawn_direct]). *)
        Ds.close w.dstack)
      pool.workers;
    (* the ingress balance ([Invariants.check]) is relative to the same
       reset point as the worker counters *)
    Ingress.reset pool.ingress

  let pp fmt s =
    Format.fprintf fmt "@[<hov 1>{";
    List.iteri
      (fun i (k, key) ->
        if i > 0 then Format.fprintf fmt ";@ ";
        Format.fprintf fmt "%s=%d" k (get s key))
      keys;
    Format.fprintf fmt "}@]"

  let to_tree s =
    Json.Obj (List.map (fun (k, key) -> (k, Json.Int (get s key))) keys)

  let to_json s = Json.to_string (to_tree s)
end

(* ---- fault-injection stats ---- *)

let fault_stats pool =
  Fault.Stats.combine
    (Fault.Injector.stats pool.probe.ig_inj)
    (Array.fold_left
       (fun acc w -> Fault.Stats.combine acc (Fault.Injector.stats w.inj))
       (Fault.Stats.zero ()) pool.workers)

(* ---- trace collection (quiescent snapshots; see pool.mli) ---- *)

let trace_enabled pool = pool.trace_on

let trace_per_worker pool =
  Array.map (fun w -> Ring.snapshot w.ring ~worker:w.id) pool.workers

(* Producer-side events (Submit/Admit/Reject), stamped with the
   pseudo-worker id [num_workers] so they never collide with a real
   worker's stream. *)
let trace_ingress pool =
  let ig = pool.probe in
  Mutex.lock ig.ig_lock;
  let evs = Ring.snapshot ig.ig_ring ~worker:(Array.length pool.workers) in
  Mutex.unlock ig.ig_lock;
  evs

let trace_dropped pool =
  Ring.dropped pool.probe.ig_ring
  + Array.fold_left (fun acc w -> acc + Ring.dropped w.ring) 0 pool.workers

let trace_events pool =
  let parts = trace_per_worker pool in
  let all = Array.concat (trace_ingress pool :: Array.to_list parts) in
  (* stable: per-worker order (monotone timestamps) survives equal keys *)
  Array.stable_sort
    (fun a b -> compare a.Event.ts b.Event.ts)
    all;
  all

let trace_clear pool =
  Array.iter (fun w -> Ring.clear w.ring) pool.workers;
  let ig = pool.probe in
  Mutex.lock ig.ig_lock;
  Ring.clear ig.ig_ring;
  Mutex.unlock ig.ig_lock

(* ---- protocol-invariant checking (quiescent pool only) ---- *)

module Invariants = struct
  let check pool =
    let errs = ref [] in
    let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    Array.iter
      (fun w ->
        List.iter
          (fun v -> add "worker %d: dstack %s" w.id v)
          (Ds.check_quiescent w.dstack);
        (match w.queue with
        | Locked_q q ->
            let b, t = Locked_deque.range q in
            if b <> 0 || t <> 0 then
              add "worker %d: locked range is [%d, %d), not [0, 0)" w.id b t
        | Clev_q _ | No_queue -> ());
        let qs = q_size w in
        if qs <> 0 then
          add "worker %d: %s deque holds %d tasks" w.id
            (Mode.name pool.pmode) qs)
      pool.workers;
    let n = Inject_queue.size pool.ingress.lane in
    if n <> 0 then add "the lane holds %d injected jobs" n;
    let ig = ingress_stats pool in
    if ig.inflight <> 0 then
      add "ingress: %d submissions still in flight" ig.inflight;
    if ig.submitted <> ig.admitted + ig.rejected then
      add "ingress imbalance: submitted=%d but admitted=%d + rejected=%d"
        ig.submitted ig.admitted ig.rejected;
    if ig.admitted <> ig.executed + ig.shed + ig.expired + ig.cancelled then
      add
        "ingress imbalance: admitted=%d but executed=%d + shed=%d + \
         expired=%d + cancelled=%d"
        ig.admitted ig.executed ig.shed ig.expired ig.cancelled;
    let s = Stats.aggregate pool in
    let n = Stats.count s in
    let spawns = n Event.Spawn and steals = n Event.Steal_ok in
    let inlined = n Event.Inline_private + n Event.Inline_public in
    let joins_stolen = n Event.Join_stolen in
    (* every spawn is joined once, inline or after its steal, in both
       shapes ... *)
    if spawns <> inlined + joins_stolen then
      add "counter imbalance: spawns=%d but inlined+joins_stolen=%d" spawns
        (inlined + joins_stolen);
    (* ... and every stolen spawn is waited out by its owner *)
    if joins_stolen <> steals then
      add "counter imbalance: joins_stolen=%d but steals=%d" joins_stolen steals;
    List.rev !errs
end

(* ---- cache-layout regression check (test path) ---- *)

let layout_check pool =
  let errs = ref [] in
  Array.iter
    (fun w ->
      let tag v = Printf.sprintf "worker %d: %s" w.id v in
      let padded name block =
        if not (Layout.is_padded block) then
          errs :=
            tag
              (Printf.sprintf "%s occupies %d words (not line-padded)" name
                 (Layout.size_words block))
            :: !errs
      in
      padded "hot block" w.hot;
      padded "count table" w.counts;
      List.iter
        (fun v -> errs := tag ("dstack " ^ v) :: !errs)
        (Ds.layout_check w.dstack))
    pool.workers;
  List.rev !errs

(* ---- stall watchdog ---- *)

let stall_report pool =
  let ig = ingress_stats pool in
  let worker w : Json.tree =
    let evs = Ring.snapshot w.ring ~worker:w.id in
    let n = Array.length evs in
    let tail = Array.sub evs (max 0 (n - 32)) (min n 32) in
    Obj
      [
        ("id", Int w.id);
        ("progress", Int (w.hot.progress + Stats.count w.counts Event.Spawn));
        ( "dstack",
          Obj
            [
              ("depth", Int (Ds.depth w.dstack));
              ("bot", Int (Ds.bot_index w.dstack));
              ("slots", Int (Ds.length w.dstack));
              ( "live",
                Arr
                  (List.map
                     (fun (idx, st) ->
                       Json.Obj [ ("index", Int idx); ("state", Str st) ])
                     (Ds.dump_live w.dstack)) );
            ] );
        ("queue_size", Int (q_size w));
        ("stats", Stats.to_tree (Stats.of_worker w));
        ("trace", Arr (Array.to_list (Array.map Event.to_tree tail)));
      ]
  in
  Json.to_string
    (Obj
       ([
          ("type", Json.Str "wool_stall_report");
          ("mode", Str (Mode.name pool.pmode));
          ("policy", Str (Wool_policy.name pool.policy));
          ("active", Bool (Atomic.get pool.active));
          ( "ingress",
            Obj
              [
                ("submitted", Int ig.submitted); ("admitted", Int ig.admitted);
                ("rejected", Int ig.rejected); ("shed", Int ig.shed);
                ("executed", Int ig.executed); ("expired", Int ig.expired);
                ("cancelled", Int ig.cancelled); ("inflight", Int ig.inflight);
              ] );
        ]
       @ (match pool.faults with
         | Some p -> [ ("fault_plan", Json.Str p.Fault.Plan.name) ]
         | None -> [])
       @ [
           ("workers", Arr (Array.to_list (Array.map worker pool.workers)));
           ("trace_dropped", Int (trace_dropped pool));
         ]))

let set_on_stall pool f = pool.on_stall <- f
let stalls_fired pool = Atomic.get pool.stall_reports

(* Sampling loop, run on its own domain. Progress counters are plain
   ints written by their workers; the watchdog reads them racily — a
   stale read only delays detection by one interval. A report fires when
   a worker's counter has been unchanged for exactly [watchdog_stalls]
   consecutive samples while a [run] is active (an episode latch: one
   report per stall episode, not one per sample). *)
let watchdog_loop pool =
  let n = Array.length pool.workers in
  let last = Array.make n (-1) in
  let stale = Array.make n 0 in
  let interval = float_of_int pool.watchdog_interval_ns *. 1e-9 in
  while not (Atomic.get pool.ingress.stop) do
    Unix.sleepf interval;
    (* injected work keeps the pool "active" even with no [run] in
       progress — a server pool is driven entirely through the lane *)
    if Atomic.get pool.active || Atomic.get pool.ingress.inflight > 0 then begin
      let fired = ref false in
      Array.iteri
        (fun i w ->
          let p = w.hot.progress + Stats.count w.counts Event.Spawn in
          if p = last.(i) then begin
            stale.(i) <- stale.(i) + 1;
            if stale.(i) = pool.watchdog_stalls then fired := true
          end
          else begin
            last.(i) <- p;
            stale.(i) <- 0
          end)
        pool.workers;
      if !fired then begin
        Atomic.incr pool.stall_reports;
        let report = stall_report pool in
        try pool.on_stall report with _ -> ()
      end
    end
    else begin
      Array.fill stale 0 n 0;
      Array.fill last 0 n (-1)
    end
  done

(* ---- pool lifecycle ---- *)

let make_worker ~id ~pool ~publicity ~plan (c : Config.t) rng =
  let inj = Fault.Injector.make plan ~worker:id in
  let w =
    {
      id;
      pool;
      dstack = Ds.create ~capacity ~publicity ~dummy:dummy_packed ();
      queue =
        (match c.mode with
        | Locked -> Locked_q (Locked_deque.create ())
        | Clev -> Clev_q (Chase_lev.create ~dummy:(-1) ())
        | Swap_generic | Private -> No_queue);
      rng;
      sel = Select.make pool.policy.Wool_policy.selector ~self:id ();
      bo = Backoff.make pool.policy.Wool_policy.backoff;
      tr_on = c.trace;
      ring = Ring.create ~capacity:(if c.trace then c.trace_capacity else 2);
      fl_on = Option.is_some c.faults;
      inj;
      inj_interfere = direct_interfere inj;
      counts = Layout.copy_as_padded (Array.make table_slots 0);
      hot =
        Layout.copy_as_padded
          { progress = 0; ambient_cancel = None };
    }
  in
  Ds.set_event_hooks w.dstack
    ~on_publish:(fun () ->
      if w.fl_on then fault_delay w Fault.Site.Publish;
      note w Event.Publish ~a:(-1) ~b:(-1))
    ~on_privatize:(fun () -> note w Event.Privatize ~a:(-1) ~b:(-1));
  refresh_ceiling w;
  w

let create ?(config = Config.default) () =
  let c = Config.validate config in
  let nworkers =
    Option.value c.Config.workers ~default:(Domain.recommended_domain_count ())
  in
  let publicity =
    (* The ladder modes below [Private] have no private tasks. A queued
       pool's deque publishes its tasks, so its stack keeps them all
       private. *)
    match c.Config.mode with
    | Swap_generic -> All_public
    | Locked | Clev -> All_private
    | Private -> c.Config.publicity
  in
  let master = Wool_util.Rng.make c.Config.seed in
  let plan = Option.value c.Config.faults ~default:Fault.Plan.none in
  let probe =
    {
      ig_lock = Mutex.create ();
      ig_trace = c.Config.trace;
      ig_ring =
        Ring.create
          ~capacity:(if c.Config.trace then c.Config.trace_capacity else 2);
      ig_fl_on = Option.is_some c.Config.faults;
      (* the ingress is a pseudo-worker one past the last real id *)
      ig_inj = Fault.Injector.make plan ~worker:nworkers;
    }
  in
  let pool =
    {
      pmode = c.Config.mode;
      direct = Mode.is_direct c.Config.mode;
      generic = c.Config.mode = Swap_generic;
      policy = c.Config.policy;
      trace_on = c.Config.trace;
      faults = c.Config.faults;
      workers = [||];
      domains = [];
      stopped = false;
      active = Atomic.make false;
      watchdog_interval_ns = c.Config.watchdog_interval_ns;
      watchdog_stalls = c.Config.watchdog_stalls;
      on_stall =
        (fun report ->
          prerr_endline ("wool: stall watchdog fired: " ^ report));
      stall_reports = Atomic.make 0;
      wd = None;
      server = c.Config.server;
      admission = c.Config.admission;
      ingress =
        Ingress.create ~capacity:c.Config.injection_capacity
          ~admission:c.Config.admission
          ~target_ns:c.Config.admission_target_ns ~note:(ig_note probe)
          ~fault:ig_check_fault ~now:Wool_util.Clock.now_ns;
      probe;
    }
  in
  let workers =
    Array.init nworkers (fun id ->
        make_worker ~id ~pool ~publicity ~plan c (Wool_util.Rng.split master))
  in
  pool.workers <- workers;
  (* In server mode every worker — including 0 — is a spawned domain and
     the creating domain only submits; otherwise the creator acts as
     worker 0 inside [run], as before. *)
  let first_spawned = if c.Config.server then 0 else 1 in
  let started = Atomic.make first_spawned in
  pool.domains <-
    List.init (nworkers - first_spawned) (fun i ->
        let w = workers.(i + first_spawned) in
        Domain.spawn (fun () ->
            Atomic.incr started;
            worker_loop w));
  (* Return once every worker runs: a [run] right after [create] then
     meets its thieves instead of finishing before their domains start. *)
  while Atomic.get started < nworkers do
    Domain.cpu_relax ()
  done;
  if c.Config.watchdog_stalls > 0 then
    pool.wd <- Some (Domain.spawn (fun () -> watchdog_loop pool));
  pool

let shutdown pool =
  if not pool.stopped then begin
    pool.stopped <- true;
    (* Close every fast window, so a running job's next spawn takes
       [spawn_slow] and is refused. An owner refresh that read [stopped]
       before the store above may reopen its window below the
       high-water depth; a spawn that deepens the stack is refused all
       the same. *)
    Array.iter (fun w -> Ds.close w.dstack) pool.workers;
    Ingress.stop pool.ingress;
    List.iter Domain.join pool.domains;
    pool.domains <- [];
    Option.iter Domain.join pool.wd;
    pool.wd <- None;
    (* With the workers gone, a job still queued in the lane will never
       run: resolve its ticket rejected so no awaiter hangs. A submitter
       racing this drain re-checks [stop] after its push and drains the
       lane too ([Ingress.admit]), so no interleaving strands a ticket. *)
    Ingress.drain pool.ingress
  end

(* [run] on a non-server pool: the job is counted through the ingress
   like any submission, but the calling domain — worker 0 — executes it
   itself rather than queueing it, where an idle worker could take it
   first. It first helps drain the jobs already queued ahead of it. On a server pool the caller is not a
   worker, so it submits and blocks on the ticket like any other
   producer. *)
let run pool f =
  if pool.stopped then invalid_arg "Wool.run: pool is shut down";
  if pool.server then Submit.await (Submit.submit pool f)
  else begin
    let w0 = pool.workers.(0) in
    let ig = pool.ingress in
    let tk = Ingress.ticket () in
    Atomic.set pool.active true;
    Ingress.enter ig;
    (* Jobs queued before this call go first, as if the root job had
       queued behind them; the bound keeps producers that keep
       submitting from starving it. *)
    let ahead = Inject_queue.size ig.lane in
    let rec help n = if n > 0 && drain_injected w0 then help (n - 1) in
    help ahead;
    exec_job w0
      (J { fn = f; tk; deadline = max_int; token = None; enq_ns = 0 })
      ~dup:false;
    Atomic.set pool.active false;
    Submit.outcome (Ingress.peek tk)
  end

let with_pool ?config f =
  let pool = create ?config () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
