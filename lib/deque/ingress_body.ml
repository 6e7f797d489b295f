(* Protocol body for the ingress: the life of a submitted job from the
   door to its settlement, and its awaiting. Like inject_queue_body.ml,
   this file is compiled with a build-generated prelude binding [A] (the
   atomic backend), [Iq] (the injection lane's queue, compiled against
   that backend), [L] (ledger counter updates) and [W] (the gate that
   blocked awaiters and idle workers wait on, an awaiter's nap, and
   pausing a waiting producer); keep it free of direct [Atomic] use.

   There is no interface file: the types below are the pool's API.

   A ticket is one atomic state word, as a task descriptor is in the
   paper (§III-A). Every way an admitted job ends — it ran, it was
   cancelled or expired at dequeue, it was shed or drained at shutdown —
   goes through [settle], whose one CAS from [Pending] to [Claimed]
   decides the outcome exactly once, however many deliveries race it.
   The winner bumps the ledger and decrements [inflight], and only then
   publishes the final state: an awaiter woken by the publication sees
   the ledger settled. An unsettled state carries its pool's [cells],
   so [await] reaches the pool from the ticket alone: each pool's
   awaiters register and block on its own cells, and no await state is
   process-wide.

   The body is the ledger's only writer. It admits ([admit], or [enter]
   for a job its submitter runs), decides at dequeue whether a popped
   job runs ([must_run]), and keeps the Adaptive controller's EWMA. The
   pool pops the lane, runs what [must_run] says to run, and settles it.
   A server pool's idle worker polls here for up to 0.5 ms ([poll]),
   then parks ([park]) while nothing is in flight, and an admission
   wakes one. An awaiter re-reads its ticket briefly; one that has
   submitted more jobs since naps while the pool has other jobs in
   flight, and every awaiter blocks after that ([await]). A producer
   awaiting its own backlog thus leaves the busy pool's settles with no
   awaiter registered to wake, and a producer with one job outstanding
   is woken by its settle. *)

(* What an awaiter needs of its ticket's pool. *)
type cells = {
  inflight : int A.t; (* admitted, not yet settled *)
  sleepers : int A.t; (* awaiters registered in [block] *)
  bell : W.gate; (* what blocked awaiters wait on; one per pool *)
}

type 'a state =
  | Pending of cells
  | Claimed of cells (* a settler won the claim and is publishing *)
  | Done of ('a, exn * Printexc.raw_backtrace) result
  | Rejected
  | Cancelled
  | Expired

type 'a ticket = 'a state A.t

(* A queued job: its body runs on a ['w], and it may carry a cancel
   token, a one-way flag. *)
type 'w job =
  | J : {
      fn : 'w -> 'a;
      tk : 'a ticket;
      deadline : int; (* absolute ns; [max_int] = none *)
      token : bool A.t option;
      enq_ns : int; (* submission time *)
    }
      -> 'w job

(* What the [note] hook hears: an admitted push, a refusal at
   admission, a queued job dropped unrun, an admission without the lane
   ([enter]). *)
type note = Admit | Refuse | Drop | Enter

(* The dequeue-time checks the [fault] hook hears, each just before its
   read: the token's, then the deadline's. *)
type check = Cancel | Expire

type 'w t = {
  lane : 'w job Iq.t;
  stop : bool A.t; (* the pool's stop flag *)
  note : note -> unit; (* the pool's trace/fault hook *)
  fault : 'w -> check -> unit; (* the dequeuing worker's fault hook *)
  now : unit -> int; (* the clock, in ns *)
  adaptive : bool; (* Adaptive admission: the controller runs *)
  target_ns : int; (* Adaptive's sojourn-latency target *)
  wait_ewma : int A.t;
      (* EWMA of observed lane-sojourn times (ns), fed by every dequeue
         with a racy read-modify-write: a lost update only slows the
         controller by one sample, so no CAS loop on the drain path *)
  submitted : int A.t;
  admitted : int A.t;
  rejected : int A.t; (* refused at admission *)
  shed : int A.t; (* settled rejected after admission: shed or drained *)
  completed : int A.t;
  expired : int A.t;
  cancelled : int A.t;
  cells : cells; (* [inflight] and the awaiters' registry and gate *)
  pending : 'a. 'a state; (* every ticket's first state, one per pool *)
  claimed : 'a. 'a state; (* the state a winning claim installs *)
  parked : int A.t; (* workers registered in [park] *)
  gate : W.gate; (* what parked workers wait on; one per pool *)
}

(* A fresh ticket of [t]'s pool. Its states physically equal
   [t.pending] until a claim: [settle]'s CAS compares against it. *)
let ticket t = A.make t.pending

let create ~capacity ~(admission : Wool_policy.Admission.t) ~target_ns
    ~note ~fault ~now =
  let cells =
    { inflight = A.make 0; sleepers = A.make 0; bell = W.gate () }
  in
  let pending = Pending cells in
  let dummy =
    J { fn = ignore; tk = A.make pending; deadline = max_int; token = None;
        enq_ns = 0 }
  in
  {
    lane = Iq.create ~capacity ~dummy ();
    stop = A.make false;
    note;
    fault;
    now;
    adaptive = admission = Adaptive;
    target_ns;
    wait_ewma = A.make 0;
    submitted = A.make 0;
    admitted = A.make 0;
    rejected = A.make 0;
    shed = A.make 0;
    completed = A.make 0;
    expired = A.make 0;
    cancelled = A.make 0;
    cells;
    pending;
    claimed = Claimed cells;
    parked = A.make 0;
    gate = W.gate ();
  }

(* Zero the ledger and the EWMA: a fresh measurement window. [inflight]
   is a balance, not a flow, so it stays. *)
let reset t =
  List.iter
    (fun c -> A.set c 0)
    [ t.submitted; t.admitted; t.rejected; t.shed; t.completed; t.expired;
      t.cancelled; t.wait_ewma ]

(* The ticket's state. A claim not yet published reads [Claimed], which
   every caller treats as [Pending]. *)
let peek (tk : 'a ticket) : 'a state = A.get tk

(* Settle an admitted job's ticket with a final state if this call wins
   its one claim; whether it did. The winner counts the state ([Rejected]
   as shed), decrements [inflight], publishes, and only then reads
   [sleepers] and rings the pool's awaiters ([block]). *)
let settle t tk s =
  A.compare_and_set tk t.pending t.claimed
  && begin
       L.bump
         (match s with
         | Done _ -> t.completed
         | Rejected -> t.shed
         | Cancelled -> t.cancelled
         | Expired -> t.expired
         | Pending _ | Claimed _ ->
             invalid_arg "Ingress.settle: not a final state")
         1;
       L.bump t.cells.inflight (-1);
       A.set tk s;
       (* one load on a busy pool, whose awaiters nap: the lock and
          broadcast of a wake are paid only while one is registered *)
       if A.get t.cells.sleepers > 0 then W.unpark_all t.cells.bell;
       true
     end

(* Drop a popped job unrun: its ticket resolves rejected. Whoever pops a
   job owns its settlement, so the claim cannot lose here. *)
let drop t (J j) =
  t.note Drop;
  ignore (settle t j.tk Rejected : bool)

let rec drain t =
  match Iq.try_pop t.lane with
  | Some job ->
      drop t job;
      drain t
  | None -> ()

(* A refusal at the door. The ticket was never shared, so it resolves by
   a plain store, with no claim. *)
let refuse t (J j) =
  L.bump t.rejected 1;
  A.set j.tk Rejected;
  t.note Refuse;
  false

(* The admission sequence: stop check → push (applying [admission]
   while the lane is full) → stop re-check → self-drain. The Adaptive
   controller refuses at the door while the sojourn EWMA is above target
   and the lane holds a backlog: the backlog drains back under target
   before fresh jobs may join it, and the backlog guard keeps an idle
   pool admitting even right after a latency spike (the EWMA moves only
   on dequeues). *)
let admit t ~(admission : Wool_policy.Admission.t) job =
  L.bump t.submitted 1;
  let q = t.lane in
  if
    A.get t.stop
    || t.adaptive && A.get t.wait_ewma > t.target_ns && Iq.size q > 0
  then refuse t job
  else begin
    (* count in flight before the push: a worker could pop and settle
       the job before a post-push increment, and a worker about to park
       must see the job in flight before it can find the lane empty *)
    L.bump t.cells.inflight 1;
    let rec push tries =
      Iq.try_push q job
      ||
      match admission with
      | Reject | Adaptive -> false
      | Block ->
          (* pause right after the failed push, whose last read is the
             slot's, so the checker's [W.pause] wakes on the write that
             frees it; read stop before the retry *)
          W.pause tries;
          (not (A.get t.stop)) && push (tries + 1)
      | Shed_oldest -> (
          (not (A.get t.stop))
          &&
          match Iq.try_pop q with
          | Some oldest ->
              drop t oldest;
              push (tries + 1)
          | None ->
              (* full, yet nothing to pop: a worker's pop has taken the
                 slot and not yet freed it. Wait right after a failed
                 push, whose last read is that slot's, so the checker's
                 [W.pause] wakes on the freeing write. *)
              Iq.try_push q job
              || begin
                   W.pause tries;
                   push (tries + 1)
                 end)
    in
    if push 0 then begin
      (* one load on a busy pool: the wake's lock and signal are paid
         only while a worker is parked *)
      if A.get t.parked > 0 then W.unpark t.gate;
      L.bump t.admitted 1;
      t.note Admit;
      (* if [stop] was set after our push, shutdown's drain may already
         be done and no worker will pop again: drain the lane here *)
      if A.get t.stop then drain t;
      true
    end
    else begin
      L.bump t.cells.inflight (-1);
      refuse t job
    end
  end

(* Admission without the lane, for a job its submitter runs itself
   ([Wool.run]): nothing else ever holds the job, so it is never
   refused. *)
let enter t =
  L.bump t.submitted 1;
  L.bump t.cells.inflight 1;
  L.bump t.admitted 1;
  t.note Enter

let settle_unrun t tk s =
  ignore (settle t tk s : bool);
  false

(* The dequeue-time decision on a job worker [w] popped: whether it must
   run. Every pop feeds the Adaptive EWMA first: a job dropped below for
   sitting past its deadline is the loudest overload signal there is.
   Then a set token settles the job cancelled, else a passed deadline
   settles it expired, without running. The [fault] hook fires between
   the pop and each read, stretching the race window between a late
   canceller (or a ticking clock) and this worker. *)
let must_run t w (J j) =
  if t.adaptive then begin
    (* alpha = 1/4 *)
    let e = A.get t.wait_ewma in
    A.set t.wait_ewma (e + ((t.now () - j.enq_ns - e) asr 2))
  end;
  let cancelled =
    match j.token with
    | Some c ->
        t.fault w Cancel;
        A.get c
    | None -> false
  in
  if cancelled then settle_unrun t j.tk Cancelled
  else if j.deadline <> max_int && (t.fault w Expire; t.now () > j.deadline)
  then settle_unrun t j.tk Expired
  else true

(* Before it parks, a server pool's idle worker polls [inflight] and
   [stop] for [window] ns, the reads [park]'s re-check makes: a request
   that arrives within the window finds the worker awake, and pays no
   wake-up. Whether the worker must go back to its idle loop without
   napping: a job came in flight, or [stop] is set. A job already in
   flight at entry starts no poll (false): the caller goes on to [park],
   which naps, so an idle sibling still wakes to steal. The clock is
   [W]'s; the checker's window ends after one poll. *)
let poll t window =
  let until = W.poll_until window in
  let rec go () =
    A.get t.cells.inflight > 0 || A.get t.stop || (W.polling until && go ())
  in
  A.get t.cells.inflight = 0 && go ()

(* Park a server pool's idle worker until an admission or [stop] wakes
   it; whether the ingress was idle, with no job in flight and stop
   unset. When it was not, the caller naps as any idle worker does: a
   job in flight may spawn tasks to steal. The worker registers in
   [parked], takes the gate's epoch, and only then re-reads [inflight]
   and [stop]; [admit] publishes the job in flight before it reads
   [parked], and [stop] the flag before its wake. Each side publishes
   before it reads the other, so with sequentially consistent atomics
   at least one sees the other: the worker does not wait, or the waker
   moves the epoch it waits on. The lane needs no read of its own: an
   admitted job is in flight from before its push until it settles.
   A worker woken while a job is in flight passes the wake on, so no
   sibling stays parked while there may be tasks to steal. *)
let[@inline never] park t =
  ignore (A.fetch_and_add t.parked 1 : int);
  let epoch = W.epoch t.gate in
  let idle = A.get t.cells.inflight = 0 && not (A.get t.stop) in
  if idle then W.park t.gate epoch;
  ignore (A.fetch_and_add t.parked (-1) : int);
  if idle && A.get t.cells.inflight > 0 && A.get t.parked > 0 then
    W.unpark t.gate;
  idle

(* Set the pool's stop flag and wake every parked worker. Stop is
   published before the wake, and a parking worker re-reads it after
   registering, so none sleeps through shutdown. *)
let stop t =
  A.set t.stop true;
  W.unpark_all t.gate

(* ---- awaiting a ticket: [await] first re-reads it, then naps while
   its awaiter's own later jobs keep the pool busy, and blocks after
   that ---- *)

(* Block until [tk] settles; its final state. The awaiter registers in
   [sleepers], takes the bell's epoch, and only then re-reads the
   ticket; [settle] publishes the final state before it reads
   [sleepers]. Each side publishes before it reads the other, so with
   sequentially consistent atomics at least one sees the other: the
   awaiter does not wait, or the settler moves the epoch it waits on.
   Any settle of the pool rings the bell, so a woken awaiter whose
   ticket is still unsettled registers again. *)
let rec block c tk =
  ignore (A.fetch_and_add c.sleepers 1 : int);
  let epoch = W.epoch c.bell in
  let s = A.get tk in
  let unsettled = match s with Pending _ | Claimed _ -> true | _ -> false in
  if unsettled then W.park c.bell epoch;
  ignore (A.fetch_and_add c.sleepers (-1) : int);
  if unsettled then block c tk else s

(* Nap and re-read the ticket while another job of the pool is in
   flight and the clock is before [until]; then block. While the pool
   is busy, a settle finds no awaiter registered, and the worker pays
   no wake for it. The nap is [W]'s; the checker's window ends after
   one nap. *)
let rec doze c tk until =
  let more = W.nap until in
  match A.get tk with
  | Pending _ | Claimed _ ->
      if more && A.get c.inflight > 1 then doze c tk until else block c tk
  | s -> s

(* Re-read the ticket [n] more times, relaxing before each read, which
   catches a job that settles within a few relaxes; then nap if
   [backlog] and the pool is busy, or block. *)
let rec spin c tk ~backlog window n =
  A.cpu_relax ();
  match A.get tk with
  | Pending _ | Claimed _ ->
      if n > 1 then spin c tk ~backlog window (n - 1)
      else if backlog && A.get c.inflight > 1 then
        doze c tk (W.poll_until window)
      else block c tk
  | s -> s

(* Wait for [tk] to settle; its final state. [backlog] says whether the
   awaiter has submitted jobs after [tk]. Only such an awaiter naps, for
   up to [window] ns while other jobs are in flight: its own later jobs
   keep the workers busy while it sleeps past the settle, and it
   collects several settled tickets per wake. An awaiter with one job
   outstanding blocks after its spin, however busy other producers keep
   the pool, so its wake comes with the settle. Every step is a
   top-level function of the cells and the ticket: an await allocates
   nothing. *)
let await ~backlog window tk =
  match A.get tk with
  | Pending c | Claimed c -> spin c tk ~backlog window W.spins
  | s -> s
