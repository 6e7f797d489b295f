module Ds = Wool_deque.Direct_stack
module Locked_deque = Wool_deque.Locked_deque
module Chase_lev = Wool_deque.Chase_lev
module Inject_queue = Wool_deque.Inject_queue
module Ingress = Wool_deque.Ingress
module Ring = Wool_trace.Ring
module Event = Wool_trace.Event
module Select = Wool_policy.Select
module Backoff = Wool_policy.Backoff
module Fault = Wool_fault
module Layout = Wool_util.Layout

exception Pool_overflow = Ds.Pool_overflow

module Mode = Mode
module Cancel = Cancel

(* Re-export so existing [Pool.Locked]-style constructor references keep
   working; the descriptor module is the source of truth. *)
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

type publicity = Wool_deque.Direct_stack.publicity =
  | All_private
  | All_public
  | Adaptive of int

module Config = struct
  type t = {
    workers : int option;
    mode : mode;
    publicity : publicity;
    capacity : int;
    idle_nap_ns : int;
    seed : int;
    trace : bool;
    trace_capacity : int;
    steal_policy : Wool_policy.Selector.t;
    backoff : Wool_policy.Backoff.t;
    faults : Wool_fault.Plan.t option;
    watchdog_interval_ns : int;
    watchdog_stalls : int;
    injection_lanes : int;
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
      capacity = 65536;
      idle_nap_ns = 50_000;
      seed = 0xC0FFEE;
      trace = false;
      trace_capacity = 1 lsl 16;
      steal_policy = Wool_policy.default.Wool_policy.selector;
      backoff = Wool_policy.default.Wool_policy.backoff;
      faults = None;
      watchdog_interval_ns = 5_000_000;
      watchdog_stalls = 0;
      injection_lanes = 1;
      injection_capacity = 1024;
      admission = Block;
      admission_target_ns = 2_000_000;
      server = false;
    }

  (* Reject nonsensical settings here, with the field named, instead of
     letting them surface as a wedged pool or a mod-by-zero deep in the
     ingress path. *)
  let validate c =
    let bad fmt = Printf.ksprintf invalid_arg ("Wool.Config: " ^^ fmt) in
    (match c.workers with
    | Some n when n <= 0 -> bad "workers must be positive (got %d)" n
    | Some _ | None -> ());
    if c.capacity <= 0 then bad "capacity must be positive (got %d)" c.capacity;
    if c.idle_nap_ns < 0 then
      bad "idle_nap_ns must be non-negative (got %d)" c.idle_nap_ns;
    if c.trace_capacity <= 0 then
      bad "trace_capacity must be positive (got %d)" c.trace_capacity;
    if c.watchdog_stalls < 0 then
      bad "watchdog_stalls must be non-negative (got %d)" c.watchdog_stalls;
    if c.watchdog_stalls > 0 && c.watchdog_interval_ns <= 0 then
      bad "watchdog_interval_ns must be positive when the watchdog is on (got %d)"
        c.watchdog_interval_ns;
    if c.injection_lanes <= 0 then
      bad "injection_lanes must be positive (got %d)" c.injection_lanes;
    if c.injection_capacity < 0 then
      bad "injection_capacity must be non-negative (got %d)"
        c.injection_capacity;
    if c.injection_capacity = 0 && c.admission = Block then
      bad
        "injection_capacity = 0 with Block admission would wedge every \
         producer; use Reject to close the ingress";
    if c.injection_capacity = 0 && c.admission = Shed_oldest then
      bad
        "injection_capacity = 0 with Shed_oldest admission has nothing to \
         shed; use Reject to close the ingress";
    if c.injection_capacity = 0 && c.admission = Adaptive then
      bad
        "injection_capacity = 0 with Adaptive admission has no lane to \
         watch; use Reject to close the ingress";
    if c.admission = Adaptive && c.admission_target_ns <= 0 then
      bad "admission_target_ns must be positive with Adaptive admission \
           (got %d)"
        c.admission_target_ns;
    if c.server && c.injection_capacity = 0 then
      bad "server mode needs injection_capacity > 0 (submission is the only \
           way in)";
    c

  let make ?workers ?mode ?publicity ?capacity ?idle_nap_ns ?seed ?trace
      ?trace_capacity ?policy ?steal_policy ?backoff ?faults
      ?watchdog_interval_ns ?watchdog_stalls ?injection_lanes
      ?injection_capacity ?admission ?admission_target_ns ?server () =
    let ov o d = Option.value o ~default:d in
    let base_selector, base_backoff =
      match policy with
      | Some p -> (p.Wool_policy.selector, p.Wool_policy.backoff)
      | None -> (default.steal_policy, default.backoff)
    in
    validate
      {
        workers;
        mode = ov mode default.mode;
        publicity = ov publicity default.publicity;
        capacity = ov capacity default.capacity;
        idle_nap_ns = ov idle_nap_ns default.idle_nap_ns;
        seed = ov seed default.seed;
        trace = ov trace default.trace;
        trace_capacity = ov trace_capacity default.trace_capacity;
        steal_policy = ov steal_policy base_selector;
        backoff = ov backoff base_backoff;
        faults;
        watchdog_interval_ns =
          ov watchdog_interval_ns default.watchdog_interval_ns;
        watchdog_stalls = ov watchdog_stalls default.watchdog_stalls;
        injection_lanes = ov injection_lanes default.injection_lanes;
        injection_capacity = ov injection_capacity default.injection_capacity;
        admission = ov admission default.admission;
        admission_target_ns = ov admission_target_ns default.admission_target_ns;
        server = ov server default.server;
      }

  let policy c =
    { Wool_policy.selector = c.steal_policy; backoff = c.backoff }

  let with_policy p c =
    {
      c with
      steal_policy = p.Wool_policy.selector;
      backoff = p.Wool_policy.backoff;
    }

  let mode_name = Mode.name

  let publicity_name = function
    | All_private -> "all_private"
    | All_public -> "all_public"
    | Adaptive w -> Printf.sprintf "adaptive(%d)" w

  let admission_name = Wool_policy.Admission.name

  let pp fmt c =
    Format.fprintf fmt
      "{workers=%s; mode=%s; publicity=%s; capacity=%d;@ \
       idle_nap_ns=%d; seed=%#x; trace=%b; trace_capacity=%d;@ \
       steal_policy=%s; backoff=%s; faults=%s; watchdog=%s;@ \
       ingress=%dx%d/%s%s}"
      (match c.workers with Some n -> string_of_int n | None -> "auto")
      (mode_name c.mode)
      (publicity_name c.publicity)
      c.capacity
      c.idle_nap_ns c.seed c.trace c.trace_capacity
      (Wool_policy.Selector.name c.steal_policy)
      (Wool_policy.Backoff.name c.backoff)
      (match c.faults with
      | Some p -> p.Wool_fault.Plan.name
      | None -> "off")
      (if c.watchdog_stalls > 0 then
         Printf.sprintf "%d@%dns" c.watchdog_stalls c.watchdog_interval_ns
       else "off")
      c.injection_lanes c.injection_capacity
      (admission_name c.admission)
      ((if c.admission = Adaptive then
          Printf.sprintf "(target=%dns)" c.admission_target_ns
        else "")
      ^ if c.server then "; server" else "")
end

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
         [note] (and [spawn_direct], for the depth) writes it, on the
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
  (* Locked/Clev only: outstanding spawns of the task currently executing
     on this worker (and its callers), newest first. The direct-stack
     modes get this for free from descriptor [depth]. *)
  mutable children : pending_child list;
  mutable ambient_cancel : Cancel.t option;
  (* the cancel token of the injected job this worker is currently
     running, if any: [spawn] checks it so a cancelled submission's task
     tree stops fanning out at the next spawn boundary. Owner-written,
     owner-read — never shared. *)
}

(* A queued spawn: the entry Locked/Clev push on the deque and cons onto
   [children]. Whoever takes it runs [pc_task]; a thief then sets
   [pc_completed], which the owner's join waits on. *)
and pending_child = { pc_task : packed; pc_completed : bool Atomic.t }

(* The per-worker task deque of the two queued modes, built only in
   them: the direct-stack modes keep their tasks in [dstack]. *)
and queue =
  | No_queue
  | Locked_q of pending_child Locked_deque.t
  | Clev_q of pending_child Chase_lev.t

and pool = {
  pmode : mode;
  (* the task-pool shape, fixed at creation: the hot paths branch on
     these immutable bools, as they do on [tr_on]/[fl_on] *)
  direct : bool; (* tasks live in [dstack] (Swap_generic, Private) *)
  generic : bool; (* Swap_generic: inlined joins go through [run_body] *)
  idle_nap_ns : int;
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
  (* ingress: external submission lanes *)
  server : bool; (* worker 0 is a spawned domain, not the caller *)
  admission : admission;
  adaptive : bool; (* [admission = Adaptive]: one immutable-bool branch *)
  adm_target_ns : int; (* Adaptive's sojourn-latency target *)
  adm_wait_ewma : int Atomic.t;
      (* EWMA of observed lane-sojourn times (ns), updated by draining
         workers with racy read-modify-writes — a lost update only slows
         the controller by one sample, so no CAS loop on the drain path *)
  next_lane : int Atomic.t; (* producer round-robin cursor *)
  ingress : (worker, Cancel.t) Ingress.t;
      (* the lanes, the ledger, and the pool's stop flag, which admission
         re-checks *)
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

and 'a future = {
  fn : worker -> 'a;
  mutable value : ('a, exn * Printexc.raw_backtrace) result option;
  index : int; (* descriptor index in the owner's direct stack; -1 otherwise *)
  owner_id : int;
}

(* A task as the pools hold it: the future itself, its type hidden.
   Unboxed, so a spawn stores the future and allocates nothing beside
   it; whoever takes the task unpacks it and calls [run_body]. *)
and packed = P : 'a future -> packed [@@unboxed]

type t = pool
type ctx = worker

type 'a ticket = 'a Ingress.ticket

exception Submission_rejected
exception Submission_expired

let dummy_task (_ : worker) = ()

let dummy_packed = P { fn = dummy_task; value = None; index = -1; owner_id = -1 }
let dummy_child = { pc_task = dummy_packed; pc_completed = Atomic.make true }

(* The count table's slots: the high-water depth first, then one per
   tag. [tag_to_int] is the identity, so a constant tag's slot is a
   constant; the depth's slot is one too, which [Event.n_tags] (opaque
   across modules) could not be. *)
let depth_slot = 0
let[@inline] slot tag = 1 + Event.tag_to_int tag
let table_slots = 1 + Event.n_tags

(* Every worker event goes through here: one call counts it and, when
   tracing, records it, so a counter and its trace event cannot drift. *)
let[@inline] note w tag ~a ~b =
  let i = slot tag in
  Array.unsafe_set w.counts i (Array.unsafe_get w.counts i + 1);
  if w.tr_on then
    Ring.record w.ring ~ts:(Wool_util.Clock.now_ns ()) ~tag ~a ~b

(* The event of an inlining [Ds.pop] code. *)
let[@inline] inline_tag code =
  if code = Ds.inline_public then Event.Inline_public else Event.Inline_private

(* ---- fault-injection hooks ----

   Every hook is guarded by the immutable [fl_on] at the call site, so a
   pool built without [Config.faults] pays one predictable branch per
   site — the same cost model as the trace ring. *)

(* Sites where only delays are meaningful ([Fail_steal]/[Raise_exn]
   cannot fire here by [Kind.valid_at]). *)
let fault_delay w site =
  match Fault.Injector.fire w.inj site with
  | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) -> Fault.Injector.spin n
  | Some _ | None -> ()

(* The direct stack exposes its protocol windows ([Pre_cas]/[Post_cas]/
   [Trip]) through [Ds.steal]'s interference hook, so a delay injected
   at [Pre_steal_cas] genuinely recreates the §III-A delayed-thief ABA
   rather than merely pausing before the call. Closed over the injector
   alone so one closure per worker serves every attempt. *)
let direct_interfere inj phase =
  let site =
    match phase with
    | Ds.Pre_cas -> Fault.Site.Pre_steal_cas
    | Ds.Post_cas -> Fault.Site.Post_steal_cas
    | Ds.Trip -> Fault.Site.Trip_wire
  in
  match Fault.Injector.fire inj site with
  | Some Fault.Kind.Fail_steal -> true
  | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) ->
      Fault.Injector.spin n;
      false
  | Some (Fault.Kind.Raise_exn | Fault.Kind.Dup) | None -> false

(* Thief-side pre-CAS site for the queued modes (Locked/Clev), which
   have no protocol window of their own: a forced failure abandons the
   attempt before touching the victim's queue. *)
let fault_steal_pre w =
  match Fault.Injector.fire w.inj Fault.Site.Pre_steal_cas with
  | Some Fault.Kind.Fail_steal -> true
  | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) ->
      Fault.Injector.spin n;
      false
  | Some (Fault.Kind.Raise_exn | Fault.Kind.Dup) | None -> false

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
    match k with
    | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) -> Fault.Injector.spin n
    | Some _ | None -> ()
  end

(* The ingress body's trace/fault hook. The [Admit] fault site sits
   between a push and the stop re-check, stretching the window a racing
   shutdown must not slip through. *)
let ig_note ig lane = function
  | Ingress.Admit ->
      ig_fault ig Fault.Site.Admit;
      ig_record ig Event.Admit ~a:lane ~b:(-1)
  | Ingress.Refuse | Ingress.Drop -> ig_record ig Event.Reject ~a:lane ~b:(-1)

let nap pool ~factor =
  if pool.idle_nap_ns > 0 then
    Unix.sleepf (float_of_int (pool.idle_nap_ns * factor) *. 1e-9)

let idle_backoff w =
  Domain.cpu_relax ();
  match Backoff.on_failure w.bo with
  | Backoff.Relax -> ()
  | Backoff.Yield ->
      (* relinquish the timeslice without the full nap *)
      Unix.sleepf 0.
  | Backoff.Nap factor ->
      if w.fl_on then fault_delay w Fault.Site.Nap_entry;
      note w Event.Nap_enter ~a:factor ~b:(-1);
      nap w.pool ~factor;
      note w Event.Nap_exit ~a:(-1) ~b:(-1)

(* ---- the queued modes' deque (Locked/Clev) ----

   Push, pop and steal run only in a queued pool, whose every worker has
   a deque. *)

let q_push w pc =
  match w.queue with
  | Locked_q q -> Locked_deque.push q pc
  | Clev_q q -> Chase_lev.push q pc
  | No_queue -> assert false

let q_pop w =
  match w.queue with
  | Locked_q q -> Locked_deque.pop q
  | Clev_q q -> Chase_lev.pop q
  | No_queue -> assert false

let q_steal victim =
  match victim.queue with
  | Locked_q q -> Locked_deque.steal ~mode:`Base q
  | Clev_q q -> (
      match Chase_lev.steal q with
      | `Stolen pc -> Some pc
      | `Empty | `Retry -> None)
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

let value_exn fut =
  match fut.value with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) ->
      (* re-raise at the joiner with the backtrace captured where the
         task body originally raised — possibly on another worker *)
      Printexc.raise_with_backtrace e bt
  | None ->
      (* Unreachable: completion is observed before the value is read. *)
      assert false

(* Checkpoint of this worker's outstanding spawns, taken on entry to a
   task body so [unwind] knows how far to go back. *)
let mark w =
  if w.pool.direct then Ds.depth w.dstack else List.length w.hot.children

(* Run a task body, storing the result — or, on an exception, unwinding
   the body's own spawns and storing the exception with the backtrace
   captured at the raise point. Never raises. *)
let rec run_body : 'a. worker -> 'a future -> unit =
 fun wk fut ->
  let mark = mark wk in
  match fut.fn wk with
  | v -> fut.value <- Some (Ok v)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unwind wk ~mark;
      fut.value <- Some (Error (e, bt))

(* ---- exception unwinding ----

   When a task body raises between spawn and join, its outstanding
   children must not be abandoned: a queued child could be picked up by
   a thief after its parent's frame is gone, and a direct-stack child
   would corrupt the strict LIFO discipline for every frame below. So
   the exception path joins-or-drains everything spawned since the
   failing body's entry [mark] before the exception propagates. Drained
   results (and any exceptions of the children themselves) are
   discarded — the parent's exception wins. *)
and unwind w ~mark =
  if w.pool.direct then
    while Ds.depth w.dstack > mark do
      let (P fut) = Ds.top_payload w.dstack in
      let code = Ds.pop w.dstack in
      let index = Ds.depth w.dstack in
      if code < Ds.stolen_finished then begin
        note w (inline_tag code) ~a:index ~b:(-1);
        run_body w fut
      end
      else begin
        note w Event.Join_stolen ~a:index ~b:code;
        if code >= 0 then leapfrog w ~victim_id:code ~index;
        Ds.reclaim w.dstack ~index
      end
    done
  else
    while List.length w.hot.children > mark do
      match w.hot.children with
      | [] -> assert false (* length > mark >= 0 *)
      | pc :: rest ->
          w.hot.children <- rest;
          take_child w pc
    done

(* Queued join of [pc], just unlinked from the head of [children]: pop it
   back and run it here, or wait out the thief that took it. *)
and take_child w pc =
  match q_pop w with
  | Some top ->
      (* every newer spawn is already joined and thieves take the oldest
         first, so a task still in the deque is [pc] *)
      assert (top == pc);
      note w Event.Inline_public ~a:(-1) ~b:(-1);
      let (P fut) = pc.pc_task in
      run_body w fut
  | None ->
      (* No thief identity in the queued modes: steal per the policy
         while waiting. This is the strategy whose buried-join behaviour
         §I discusses. *)
      note w Event.Join_stolen ~a:(-1) ~b:(-1);
      while not (Atomic.get pc.pc_completed) do
        ignore (steal_idle w : bool)
      done

(* ---- steal attempts ----

   Each notes its own [Steal_ok] *before* running the task: the count
   must be ordered before the completion signal the owner waits on
   (descriptor DONE / [pc_completed]), or a quiescent invariant check
   could observe the join without the steal. *)

(* Attempt to steal one task from [victim] and run it. *)
and steal_once w ~(victim : worker) =
  note w Event.Steal_attempt ~a:(-1) ~b:victim.id;
  let ran =
    if w.pool.direct then steal_direct w ~victim else steal_queued w ~victim
  in
  if ran then begin
    Backoff.on_success w.bo;
    Select.on_success w.sel ~victim:victim.id
  end;
  ran

and steal_direct w ~victim =
  let result =
    if w.fl_on then
      Ds.steal victim.dstack ~thief:w.id ~interfere:w.inj_interfere
    else Ds.steal victim.dstack ~thief:w.id
  in
  match result with
  | Ds.Stolen_task (P fut, index) ->
      note w Event.Steal_ok ~a:index ~b:victim.id;
      run_body w fut;
      Ds.complete_steal victim.dstack ~index;
      true
  | Ds.Backoff ->
      note w Event.Steal_backoff ~a:(-1) ~b:victim.id;
      false
  | Ds.Fail -> false

and steal_queued w ~victim =
  if w.fl_on && fault_steal_pre w then false
  else
    match q_steal victim with
    | Some pc ->
        note w Event.Steal_ok ~a:(-1) ~b:victim.id;
        let (P fut) = pc.pc_task in
        run_body w fut;
        Atomic.set pc.pc_completed true;
        true
    | None -> false

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
   strategy. Injection lanes are checked first: an idle worker is exactly
   the consumer the ingress wants, and a successful drain resets the
   backoff like a successful steal. *)
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

(* Try to pop one injected job off the pool's ingress lanes and run it.
   Called only from the idle loop — after the worker has run out of local
   work, before it turns to remote steals — so the private-task fast path
   never sees the lanes. Workers start their scan at a different lane
   each ([id]-staggered) to spread drain pressure. *)
and drain_injected w =
  let pool = w.pool in
  let lanes = pool.ingress.lanes in
  let nl = Array.length lanes in
  if nl = 0 then false
  else begin
    let dup =
      w.fl_on
      &&
      match Fault.Injector.fire w.inj Fault.Site.Drain with
      | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) ->
          Fault.Injector.spin n;
          false
      | Some Fault.Kind.Dup -> true
      | Some _ | None -> false
    in
    let rec scan i =
      if i >= nl then false
      else begin
        let lane = if nl = 1 then 0 else (w.id + i) mod nl in
        match Inject_queue.try_pop lanes.(lane) with
        | Some (J j as job) ->
            (* Lifecycle drops come first: a cancelled or expired job is
               settled here without running — and without a
               [Dequeue_injected] note, which the trace oracle and the
               [injected] counter equate with executions. The
               [Cancel]/[Expire] fault sites sit between the pop and the
               respective check, stretching the race window between a
               late canceller (or a ticking clock) and this worker. *)
            if pool.adaptive then begin
              (* racy EWMA (alpha = 1/4): a lost update costs one sample,
                 which the controller tolerates by design. Every pop
                 feeds it — a job dropped below for sitting past its
                 deadline is the loudest overload signal there is. *)
              let wait = Wool_util.Clock.now_ns () - j.enq_ns in
              let e = Atomic.get pool.adm_wait_ewma in
              Atomic.set pool.adm_wait_ewma (e + ((wait - e) asr 2))
            end;
            let cancelled =
              match j.token with
              | Some c ->
                  if w.fl_on then fault_delay w Fault.Site.Cancel;
                  Cancel.is_set c
              | None -> false
            in
            if cancelled then
              ignore (Ingress.settle pool.ingress j.tk Cancelled : bool)
            else if
              j.deadline <> max_int
              && begin
                   if w.fl_on then fault_delay w Fault.Site.Expire;
                   Wool_util.Clock.now_ns () > j.deadline
                 end
            then ignore (Ingress.settle pool.ingress j.tk Expired : bool)
            else exec_job w job ~lane ~dup;
            true
        | None -> scan (i + 1)
      end
    in
    scan 0
  end

(* Run a job on [w] and settle its ticket; never raises. It runs twice
   when [dup] (the [Dup] drain fault: an at-least-once delivery that the
   ticket's one claim must absorb). Its token is the ambient token of
   its task tree, which every [spawn] checks. As in [run_body], a job
   that raises first unwinds its own spawns; a [Cancel.Cancelled]
   escaping the body settles the ticket cancelled, not failed. *)
and exec_job w (J j) ~lane ~dup =
  note w Event.Dequeue_injected ~a:lane ~b:(-1);
  let saved = w.hot.ambient_cancel in
  w.hot.ambient_cancel <- j.token;
  for _ = 0 to Bool.to_int dup do
    let mark = mark w in
    let outcome =
      match j.fn w with
      | v -> Ingress.Done (Ok v)
      | exception Cancel.Cancelled ->
          unwind w ~mark;
          Ingress.Cancelled
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          unwind w ~mark;
          Ingress.Done (Error (e, bt))
    in
    ignore (Ingress.settle w.pool.ingress j.tk outcome : bool)
  done;
  w.hot.ambient_cancel <- saved

let worker_loop w =
  while not (Atomic.get w.pool.ingress.stop) do
    ignore (steal_idle w : bool)
  done

(* ---- spawn ---- *)

let spawn_direct w (fn : worker -> 'a) : 'a future =
  let index = Ds.depth w.dstack in
  let fut = { fn; value = None; index; owner_id = w.id } in
  (* the push may raise [Pool_overflow]; only spawns that happened are
     noted, so an overflow leaves the spawn/join balance intact for
     [Invariants.check] *)
  Ds.push w.dstack (P fut);
  note w Event.Spawn ~a:index ~b:(-1);
  if index >= Array.unsafe_get w.counts depth_slot then
    Array.unsafe_set w.counts depth_slot (index + 1);
  fut

let spawn_queued w (fn : worker -> 'a) : 'a future =
  let fut = { fn; value = None; index = -1; owner_id = w.id } in
  let pc = { pc_task = P fut; pc_completed = Atomic.make false } in
  (* Push first: if the queue overflows, no phantom child is left on the
     list for the unwinder to wait on forever. A thief completing the
     task before the cons is harmless — the record just starts life with
     [pc_completed] already true. *)
  q_push w pc;
  w.hot.children <- pc :: w.hot.children;
  note w Event.Spawn ~a:(-1) ~b:(-1);
  fut

(* ---- join ---- *)

let join_direct w fut =
  let index = fut.index in
  if index <> Ds.depth w.dstack - 1 then
    invalid_arg "Wool.join: joins must be made in LIFO spawn order";
  let code = Ds.pop w.dstack in
  if code < Ds.stolen_finished then begin
    note w (inline_tag code) ~a:index ~b:(-1);
    if w.pool.generic then begin
      (* Generic join: run the descriptor's payload into its result cell
         and read it back, as a runtime without task-specific join
         functions must. *)
      run_body w fut;
      value_exn fut
    end
    else
      (* Task-specific join: direct call of the typed task function.
         An exception here unwinds in the caller's [run_body]. *)
      fut.fn w
  end
  else begin
    (* [code] is the thief's id, or [Ds.stolen_finished] *)
    note w Event.Join_stolen ~a:index ~b:code;
    Select.stolen_by w.sel ~thief:code;
    if code >= 0 then leapfrog w ~victim_id:code ~index;
    Ds.reclaim w.dstack ~index;
    value_exn fut
  end

(* The LIFO check comes before the deque is touched: [fut] must be the
   newest outstanding spawn, the head of [children]. ([P fut] is [fut]
   itself, the constructor being unboxed.) *)
let join_queued w fut =
  match w.hot.children with
  | pc :: rest when pc.pc_task == P fut ->
      w.hot.children <- rest;
      take_child w pc;
      value_exn fut
  | _ -> invalid_arg "Wool.join: joins must be made in LIFO spawn order"

(* ---- the public task operations ---- *)

(* The [Spawn] fault site: a [Raise_exn] replaces the body, so the fault
   surfaces exactly like a task exception, exercising the full
   unwind/propagation path. *)
let spawn_fault w fn =
  match Fault.Injector.fire w.inj Fault.Site.Spawn with
  | Some Fault.Kind.Raise_exn ->
      let e = Fault.Injector.injected_exn w.inj Fault.Site.Spawn in
      fun _ -> raise e
  | Some (Fault.Kind.Delay n | Fault.Kind.Stall n) ->
      Fault.Injector.spin n;
      fn
  | Some (Fault.Kind.Fail_steal | Fault.Kind.Dup) | None -> fn

let spawn (w : ctx) (fn : ctx -> 'a) : 'a future =
  if w.pool.stopped then invalid_arg "Wool.spawn: pool is shut down";
  (* one predictable branch (load + compare against the immediate [None])
     on the spawn fast path: a cancelled submission's task tree stops
     fanning out here instead of racing the fan-out to completion *)
  (match w.hot.ambient_cancel with
  | Some c -> Cancel.check c
  | None -> ());
  let fn = if w.fl_on then spawn_fault w fn else fn in
  if w.pool.direct then spawn_direct w fn else spawn_queued w fn

let join (w : ctx) fut =
  if fut.owner_id <> w.id then
    invalid_arg "Wool.join: future joined on a different worker";
  if w.fl_on then fault_delay w Fault.Site.Join;
  if w.pool.direct then join_direct w fut else join_queued w fut

let call (w : ctx) fn = fn w
let cancel_token (w : ctx) = w.hot.ambient_cancel

(* Hunger poll for lazy splitters (Wool_ropes): should the running task
   carve off stealable work right now? The direct modes read the trip
   wire / thief-activity state their stack already maintains (see
   {!Ds.steal_pressure}); the queued baselines have no trip wire, so the
   best cheap proxy is "my deque has been drained" — thieves took
   everything I published and may be starving. *)
let steal_pressure (w : ctx) =
  let pool = w.pool in
  if pool.direct then Ds.steal_pressure w.dstack
  else Array.length pool.workers > 1 && q_size w = 0

let self_id w = w.id
let num_workers pool = Array.length pool.workers
let mode pool = pool.pmode
let policy pool = pool.policy
let policy_name pool = Wool_policy.name pool.policy
let pool_of_ctx w = w.pool

(* ---- the ingress path (external submission): [Submit] maps the
   public surface onto [Ingress], the model-checked protocol body ---- *)

let lane_of pool =
  let nl = Array.length pool.ingress.lanes in
  if nl <= 1 then 0
  else Atomic.fetch_and_add pool.next_lane 1 land max_int mod nl

module Submit = struct
  type nonrec 'a ticket = 'a ticket

  exception Rejected = Submission_rejected
  exception Expired = Submission_expired
  exception Cancelled = Cancel.Cancelled

  (* A settled ticket as [await], [await_until] and [run] report it; a
     job's exception is re-raised with the backtrace of its raise. *)
  let outcome : 'a Ingress.state -> 'a = function
    | Done (Ok v) -> v
    | Done (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Rejected -> raise Submission_rejected
    | Cancelled -> raise Cancel.Cancelled
    | Expired -> raise Submission_expired
    | Pending | Claimed -> invalid_arg "Wool: ticket not settled"

  let await tk =
    match Ingress.peek tk with
    | Pending | Claimed ->
        Ingress.W.block (fun () -> Ingress.peek tk == Pending);
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

  (* One submission through [Ingress.admit]; whether it was admitted.
     The Adaptive early shed refuses at the door while the observed
     sojourn latency is above target and the lane holds a backlog: the
     backlog drains back under target before fresh jobs may join it, and
     the backlog guard keeps an idle pool admitting even right after a
     latency spike (the EWMA decays only on dequeues). *)
  let admit ?(deadline = max_int) ?cancel pool ~lane ~batch ~admission tk fn =
    ig_fault pool.probe Fault.Site.Submit;
    ig_record pool.probe Event.Submit ~a:lane ~b:batch;
    Ingress.admit pool.ingress ~lane ~admission
      ~shedding:
        (pool.adaptive && Atomic.get pool.adm_wait_ewma > pool.adm_target_ns)
      (J
         {
           fn;
           tk;
           deadline;
           token = cancel;
           enq_ns = Wool_util.Clock.now_ns ();
         })

  let submit_on ?deadline ?cancel pool ~lane ~batch fn =
    let tk = Ingress.ticket () in
    let admission = pool.admission in
    ignore (admit ?deadline ?cancel pool ~lane ~batch ~admission tk fn);
    tk

  let submit ?deadline ?cancel pool fn =
    submit_on ?deadline ?cancel pool ~lane:(lane_of pool) ~batch:(-1) fn

  (* One lane pick for the whole batch: consecutive elements land in the
     same lane, so a draining worker takes them without re-probing. *)
  let submit_batch ?deadline ?cancel pool fns =
    let lane = lane_of pool and batch = List.length fns in
    List.map (submit_on ?deadline ?cancel pool ~lane ~batch) fns

  (* One-shot admission is admission under [Reject]. *)
  let try_submit ?deadline ?cancel pool fn =
    let tk = Ingress.ticket () in
    if
      admit ?deadline ?cancel pool ~lane:(lane_of pool) ~batch:(-1)
        ~admission:Reject tk fn
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
    Array.iter (fun w -> Array.fill w.counts 0 table_slots 0) pool.workers;
    (* the ingress balance ([Invariants.check]) is relative to the same
       reset point as the worker counters *)
    let ig = pool.ingress in
    Atomic.set ig.submitted 0;
    Atomic.set ig.admitted 0;
    Atomic.set ig.rejected 0;
    Atomic.set ig.shed 0;
    Atomic.set ig.completed 0;
    Atomic.set ig.expired 0;
    Atomic.set ig.cancelled 0;
    Atomic.set pool.adm_wait_ewma 0

  let pp fmt s =
    Format.fprintf fmt "@[<hov 1>{";
    List.iteri
      (fun i (k, key) ->
        if i > 0 then Format.fprintf fmt ";@ ";
        Format.fprintf fmt "%s=%d" k (get s key))
      keys;
    Format.fprintf fmt "}@]"

  let to_json s =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, key) -> Printf.sprintf {|"%s":%d|} k (get s key))
           keys)
    ^ "}"
end

(* ---- fault-injection stats ---- *)

let faults_enabled pool = Option.is_some pool.faults
let fault_plan pool = pool.faults

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
        let qs = q_size w in
        if qs <> 0 then
          add "worker %d: %s deque holds %d tasks" w.id
            (Mode.name pool.pmode) qs;
        let ch = List.length w.hot.children in
        if ch <> 0 then
          add "worker %d: %d outstanding queued children" w.id ch)
      pool.workers;
    Array.iteri
      (fun i q ->
        let n = Inject_queue.size q in
        if n <> 0 then add "lane %d holds %d injected jobs" i n)
      pool.ingress.lanes;
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
    if pool.direct then begin
      if spawns <> inlined + joins_stolen then
        add "counter imbalance: spawns=%d but inlined+joins_stolen=%d" spawns
          (inlined + joins_stolen)
    end
    else if
      (* every queued spawn is either inlined by its owner or stolen *)
      spawns <> inlined + steals
    then
      add "counter imbalance: spawns=%d but inlined=%d + steals=%d" spawns
        inlined steals;
    (* ... and every stolen spawn is waited out by its owner *)
    if joins_stolen <> steals then
      add "counter imbalance: joins_stolen=%d but steals=%d" joins_stolen steals;
    List.rev !errs

  let check_exn pool =
    match check pool with
    | [] -> ()
    | errs ->
        failwith
          ("Wool.Invariants.check_exn: " ^ String.concat "; " errs)
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
  let buf = Buffer.create 1024 in
  let esc = Wool_trace.Json.escape in
  Buffer.add_string buf {|{"type":"wool_stall_report"|};
  Printf.bprintf buf {|,"mode":"%s"|} (Config.mode_name pool.pmode);
  Printf.bprintf buf {|,"policy":"%s"|} (esc (Wool_policy.name pool.policy));
  Printf.bprintf buf {|,"active":%b|} (Atomic.get pool.active);
  (let ig = ingress_stats pool in
   Printf.bprintf buf
     {|,"ingress":{"submitted":%d,"admitted":%d,"rejected":%d,"shed":%d,"executed":%d,"expired":%d,"cancelled":%d,"inflight":%d}|}
     ig.submitted ig.admitted ig.rejected ig.shed ig.executed ig.expired
     ig.cancelled ig.inflight);
  (match pool.faults with
  | Some p -> Printf.bprintf buf {|,"fault_plan":"%s"|} (esc p.Fault.Plan.name)
  | None -> ());
  Buffer.add_string buf {|,"workers":[|};
  Array.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf {|{"id":%d,"progress":%d|} w.id
        (w.hot.progress + Stats.count w.counts Event.Spawn);
      Printf.bprintf buf {|,"dstack":{"depth":%d,"bot":%d,"live":[|}
        (Ds.depth w.dstack) (Ds.bot_index w.dstack);
      List.iteri
        (fun j (idx, st) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf {|{"index":%d,"state":"%s"}|} idx (esc st))
        (Ds.dump_live w.dstack);
      Buffer.add_string buf "]}";
      Printf.bprintf buf {|,"queue_size":%d|} (q_size w);
      Printf.bprintf buf {|,"children":%d|} (List.length w.hot.children);
      Printf.bprintf buf {|,"stats":%s|} (Stats.to_json (Stats.of_worker w));
      Buffer.add_string buf {|,"trace":[|};
      let evs = Ring.snapshot w.ring ~worker:w.id in
      let n = Array.length evs in
      let start = max 0 (n - 32) in
      for j = start to n - 1 do
        if j > start then Buffer.add_char buf ',';
        Buffer.add_string buf (Event.to_json evs.(j))
      done;
      Buffer.add_string buf "]}")
    pool.workers;
  Printf.bprintf buf {|],"trace_dropped":%d}|} (trace_dropped pool);
  Buffer.contents buf

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
       progress — a server pool is driven entirely through the lanes *)
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

let make_worker ~id ~pool ~mode ~publicity ~capacity ~trace ~trace_capacity
    ~faults rng =
  let fl_on, plan =
    match faults with Some p -> (true, p) | None -> (false, Fault.Plan.none)
  in
  let inj = Fault.Injector.make plan ~worker:id in
  let w =
    {
      id;
      pool;
      dstack = Ds.create ~capacity ~publicity ~dummy:dummy_packed ();
      queue =
        (match mode with
        | Locked -> Locked_q (Locked_deque.create ~capacity ~dummy:dummy_child ())
        | Clev -> Clev_q (Chase_lev.create ~dummy:dummy_child ())
        | Swap_generic | Private -> No_queue);
      rng;
      sel = Select.make pool.policy.Wool_policy.selector ~self:id ();
      bo = Backoff.make pool.policy.Wool_policy.backoff;
      tr_on = trace;
      ring = Ring.create ~capacity:(if trace then trace_capacity else 2);
      fl_on;
      inj;
      inj_interfere = direct_interfere inj;
      counts = Layout.copy_as_padded (Array.make table_slots 0);
      hot =
        Layout.copy_as_padded
          {
            progress = 0;
            children = [];
            ambient_cancel = None;
          };
    }
  in
  Ds.set_event_hooks w.dstack
    ~on_publish:(fun () ->
      if w.fl_on then fault_delay w Fault.Site.Publish;
      note w Event.Publish ~a:(-1) ~b:(-1))
    ~on_privatize:(fun () -> note w Event.Privatize ~a:(-1) ~b:(-1));
  w

let create_of_config (c : Config.t) =
  let c = Config.validate c in
  let nworkers =
    match c.Config.workers with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  if nworkers <= 0 then invalid_arg "Pool.create: workers must be positive";
  let publicity =
    (* The ladder modes below [Private] have no private tasks. *)
    match c.Config.mode with
    | Swap_generic -> All_public
    | Locked | Clev | Private -> c.Config.publicity
  in
  let master = Wool_util.Rng.make c.Config.seed in
  let plan =
    match c.Config.faults with Some p -> p | None -> Fault.Plan.none
  in
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
      idle_nap_ns = c.Config.idle_nap_ns;
      policy = Config.policy c;
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
      adaptive = c.Config.admission = Adaptive;
      adm_target_ns = c.Config.admission_target_ns;
      adm_wait_ewma = Atomic.make 0;
      next_lane = Atomic.make 0;
      ingress =
        Ingress.create
          ~lanes:
            (if c.Config.injection_capacity = 0 then 0
             else c.Config.injection_lanes)
          ~capacity:c.Config.injection_capacity
          ~note:(ig_note probe);
      probe;
    }
  in
  let workers =
    Array.init nworkers (fun id ->
        make_worker ~id ~pool ~mode:c.Config.mode ~publicity
          ~capacity:c.Config.capacity
          ~trace:c.Config.trace ~trace_capacity:c.Config.trace_capacity
          ~faults:c.Config.faults
          (Wool_util.Rng.split master))
  in
  pool.workers <- workers;
  (* In server mode every worker — including 0 — is a spawned domain and
     the creating domain only submits; otherwise the creator acts as
     worker 0 inside [run], as before. *)
  let first_spawned = if c.Config.server then 0 else 1 in
  pool.domains <-
    List.init (nworkers - first_spawned) (fun i ->
        let w = workers.(i + first_spawned) in
        Domain.spawn (fun () -> worker_loop w));
  if c.Config.watchdog_stalls > 0 then
    pool.wd <- Some (Domain.spawn (fun () -> watchdog_loop pool));
  pool

let create ?(config = Config.default) () = create_of_config config

let shutdown pool =
  if not pool.stopped then begin
    pool.stopped <- true;
    Atomic.set pool.ingress.stop true;
    List.iter Domain.join pool.domains;
    pool.domains <- [];
    Option.iter Domain.join pool.wd;
    pool.wd <- None;
    (* With the workers gone, a job still queued in a lane will never
       run: resolve its ticket rejected so no awaiter hangs. A submitter
       racing this drain re-checks [stop] after its push and drains its
       own lane too ([Ingress.admit]), so no interleaving strands a
       ticket. *)
    Array.iteri
      (fun lane _ -> Ingress.drain pool.ingress ~lane)
      pool.ingress.lanes
  end

(* [run] on a non-server pool: the job is counted through the ingress
   like any submission, but the calling domain — worker 0 — executes it
   itself rather than queueing it, where an idle worker could take it
   first, and even when the ingress is closed. It first helps drain the
   jobs already queued ahead of it. On a server pool the caller is not a
   worker, so it submits and blocks on the ticket like any other
   producer. *)
let run pool f =
  if pool.stopped then invalid_arg "Wool.run: pool is shut down";
  if pool.server then Submit.await (Submit.submit pool f)
  else begin
    let w0 = pool.workers.(0) in
    let ig = pool.ingress in
    let tk = Ingress.ticket () in
    let lane = lane_of pool in
    Atomic.set pool.active true;
    (* admitted without a lane: nothing else ever holds the job, so the
       ledger is bumped directly *)
    Atomic.incr ig.submitted;
    ig_record pool.probe Event.Submit ~a:lane ~b:(-1);
    Atomic.incr ig.inflight;
    Atomic.incr ig.admitted;
    ig_record pool.probe Event.Admit ~a:lane ~b:(-1);
    (* Jobs queued before this call go first, as if the root job had
       queued behind them; the bound keeps producers that keep
       submitting from starving it. *)
    let ahead =
      Array.fold_left (fun n q -> n + Inject_queue.size q) 0 ig.lanes
    in
    let rec help n = if n > 0 && drain_injected w0 then help (n - 1) in
    help ahead;
    exec_job w0
      (J { fn = f; tk; deadline = max_int; token = None; enq_ns = 0 })
      ~lane ~dup:false;
    Atomic.set pool.active false;
    Submit.outcome (Ingress.peek tk)
  end

let with_pool ?config f =
  let pool = create ?config () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
