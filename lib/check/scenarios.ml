(* Bounded model-checking scenarios over the checked protocol
   instantiations. Each scenario is small enough to explore every
   interleaving: setup builds the stack (and may run protocol prefix
   operations directly, unscheduled), threads are the racing owner /
   thieves, and the final block asserts the outcome of each schedule —
   exactly-once execution, quiescence, and counter balance. Coverage
   flags accumulated across schedules additionally assert that the
   exploration actually visited the interesting paths (a steal, a
   back-off, a privatize) rather than passing vacuously. *)

module Ds = Direct_stack_checked
module Cl = Chase_lev_checked
module Iq = Inject_queue_checked

let check cond msg = if not cond then failwith msg

(* Every scenario's owner ends with [Ds.sweep], as the pool's workers do
   where a stack unwinds to its base, so this also checks that the sweep
   clears every payload the joins left. *)
let quiescent t =
  match Ds.check_quiescent t with
  | [] -> ()
  | v :: _ -> failwith ("not quiescent: " ^ v)

(* The owner's accounting, kept by the harness as the pool keeps it: the
   stack counts nothing itself. Plain fields, so no scheduling point. *)
type tally = {
  mutable pushes : int;
  mutable inlined : int;
  mutable joins_stolen : int;
}

let tally () = { pushes = 0; inlined = 0; joins_stolen = 0 }

let push c t v =
  Ds.push t v;
  c.pushes <- c.pushes + 1

(* [Ds.pop], counting the join its code reports. *)
let pop c t =
  let code = Ds.pop t in
  if code < Ds.stolen_finished then c.inlined <- c.inlined + 1
  else c.joins_stolen <- c.joins_stolen + 1;
  code

(* Every push joined once, and every committed steal (the stack's own
   steal count) met by exactly one stolen join. *)
let balanced c t =
  check (c.pushes = c.inlined + c.joins_stolen) "spawn/join imbalance";
  check (Ds.steal_count t = c.joins_stolen) "steal/join-stolen imbalance"

(* Owner-side join of the youngest descriptor: inline, or wait out the
   thief and reclaim — the pool's join protocol reduced to the stack. *)
let join ?record c t =
  let v = Ds.top_payload t in
  let code = pop c t in
  if code < Ds.stolen_finished then
    match record with Some r -> r v | None -> ()
  else begin
    let index = Ds.depth t in
    if code >= 0 then
      while not (Ds.stolen_done t ~index) do
        Shadow_atomic.cpu_relax ()
      done;
    Ds.reclaim t ~index
  end

(* A thief making one steal attempt, completing on success. *)
let attempt ?on_backoff ~thief ~record t =
  match Ds.steal t ~thief with
  | Ds.Stolen_task (v, index) ->
      record v;
      Ds.complete_steal t ~index
  | Ds.Fail -> ()
  | Ds.Backoff -> ( match on_backoff with Some f -> f () | None -> ())

type t = {
  name : string;
  descr : string;
  run : max_schedules:int -> Sched.stats;
}

type outcome = Pass of Sched.stats | Fail of string

let run_one ?(max_schedules = 3_000_000) s =
  match s.run ~max_schedules with
  | stats -> Pass stats
  | exception Sched.Violation (msg, sched) ->
      Fail (Printf.sprintf "%s\n  schedule: %s" msg sched)
  | exception Sched.Deadlock sched ->
      Fail (Printf.sprintf "deadlock\n  schedule: %s" sched)
  | exception Sched.Schedule_limit n ->
      Fail (Printf.sprintf "exceeded %d schedules without converging" n)
  | exception e -> Fail (Printexc.to_string e)

(* -- Scenario 1: the full EMPTY -> TASK -> STOLEN -> DONE lifecycle of a
   single public descriptor, owner join racing one thief. *)
let single_task_lifecycle =
  let run ~max_schedules =
    let saw_inline = ref false and saw_steal = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = Ds.create ~capacity:1 ~publicity:Ds.All_public ~dummy:(-1) () in
          let c = tally () in
          let execd = Array.make 1 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          Sched.spawn (fun () ->
              push c t 0;
              join c t ~record:(fun v ->
                  saw_inline := true;
                  record v);
              Ds.sweep t);
          Sched.spawn (fun () ->
              attempt t ~thief:1 ~record:(fun v ->
                  saw_steal := true;
                  record v));
          Sched.final (fun () ->
              check (execd.(0) = 1) "task 0 not executed exactly once";
              quiescent t;
              balanced c t))
    in
    check !saw_inline "coverage: owner inline never explored";
    check !saw_steal "coverage: successful steal never explored";
    stats
  in
  {
    name = "single-task-lifecycle";
    descr = "owner push+join vs one thief on one public descriptor";
    run;
  }

(* -- Scenario 2: owner working through a two-deep stack against a
   thief; exercises join-of-stolen (spin for DONE, reclaim) under every
   interleaving of the thief's steal. *)
let stack_vs_one_thief =
  let run ~max_schedules =
    let saw_steal = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = Ds.create ~capacity:2 ~publicity:Ds.All_public ~dummy:(-1) () in
          let c = tally () in
          let execd = Array.make 2 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          Sched.spawn (fun () ->
              push c t 0;
              push c t 1;
              join c t ~record;
              join c t ~record;
              Ds.sweep t);
          Sched.spawn (fun () ->
              attempt t ~thief:1 ~record:(fun v ->
                  saw_steal := true;
                  record v));
          Sched.final (fun () ->
              check (execd.(0) = 1) "task 0 not executed exactly once";
              check (execd.(1) = 1) "task 1 not executed exactly once";
              quiescent t;
              balanced c t))
    in
    check !saw_steal "coverage: successful steal never explored";
    stats
  in
  {
    name = "stack-vs-one-thief";
    descr = "two-deep owner stack, LIFO joins vs one thief";
    run;
  }

(* -- Scenario 3: two thieves race the CAS on one descriptor; the winner
   commits through the bot-frozen packed-word window (PR 4) while the
   loser must fail, never back off, and never double-execute. *)
let two_thieves_one_task =
  let run ~max_schedules =
    let wins = [| false; false |] in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = Ds.create ~capacity:1 ~publicity:Ds.All_public ~dummy:(-1) () in
          let c = tally () in
          let execd = Array.make 1 0 in
          push c t 0;
          let thief i =
            attempt t ~thief:(i + 1)
              ~record:(fun v ->
                wins.(i) <- true;
                execd.(v) <- execd.(v) + 1)
              ~on_backoff:(fun () -> failwith "unexpected back-off")
          in
          Sched.spawn (fun () -> thief 0);
          Sched.spawn (fun () -> thief 1);
          Sched.final (fun () ->
              (* the owner joins after the race settles *)
              join c t;
              Ds.sweep t;
              check (execd.(0) = 1) "task 0 not executed exactly once";
              check (Ds.steal_count t = 1) "exactly one steal must commit";
              quiescent t;
              balanced c t))
    in
    check wins.(0) "coverage: thief 1 never won";
    check wins.(1) "coverage: thief 2 never won";
    stats
  in
  {
    name = "two-thieves-one-task";
    descr = "steal-steal CAS race through the packed botw commit";
    run;
  }

(* -- Scenario 4: the delayed-thief ABA (paper SIII-A). The thief reads
   TASK at slot 1, then the owner inlines it, joins a finished steal,
   reclaims below it and refills both slots — so the thief's delayed CAS
   can win against a *recycled* descriptor. The bot re-read must turn
   that into a restore + Backoff, never a double execution. *)
let recycled_descriptor_backoff =
  let run ~max_schedules =
    let saw_backoff = ref false and saw_steal = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = Ds.create ~capacity:2 ~publicity:Ds.All_public ~dummy:(-1) () in
          let c = tally () in
          let execd = Array.make 4 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          (* unscheduled prefix: slot 0 already stolen and finished *)
          push c t 0;
          push c t 1;
          (match Ds.steal t ~thief:7 with
          | Ds.Stolen_task (0, 0) ->
              record 0;
              Ds.complete_steal t ~index:0
          | _ -> failwith "setup: expected to steal task 0 at slot 0");
          Sched.spawn (fun () ->
              join c t ~record (* task 1, or join its steal *);
              join c t ~record (* finished steal of task 0: reclaim to bot 0 *);
              push c t 2;
              push c t 3 (* recycles slot 1's descriptor *);
              join c t ~record;
              join c t ~record;
              Ds.sweep t);
          Sched.spawn (fun () ->
              attempt t ~thief:2
                ~record:(fun v ->
                  saw_steal := true;
                  record v)
                ~on_backoff:(fun () -> saw_backoff := true));
          Sched.final (fun () ->
              for v = 0 to 3 do
                check (execd.(v) = 1)
                  (Printf.sprintf "task %d not executed exactly once" v)
              done;
              quiescent t;
              balanced c t))
    in
    check !saw_backoff "coverage: recycled-descriptor back-off never explored";
    check !saw_steal "coverage: successful steal never explored";
    stats
  in
  {
    name = "recycled-descriptor-backoff";
    descr = "delayed CAS wins vs a recycled slot; bot re-read backs off";
    run;
  }

(* -- Scenario 5: steal racing privatize exactly at the trip wire. The
   unscheduled prefix drives consec_public_inlines to one below the
   threshold; the owner's next public inline privatises (disarming the
   wire and scheduling a re-arm) at the same time as the thief's CAS on
   the same descriptor. *)
let trip_wire_steal_vs_privatize =
  let run ~max_schedules =
    let saw_privatize = ref false and saw_steal = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t =
            Ds.create ~capacity:8 ~publicity:(Ds.Adaptive 1) ~dummy:(-1) ()
          in
          let c = tally () in
          let privatizes = ref 0 in
          Ds.set_event_hooks t
            ~on_publish:(fun () -> ())
            ~on_privatize:(fun () ->
              saw_privatize := true;
              incr privatizes);
          let execd = Array.make 2 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          (* unscheduled prefix: 15 consecutive public inlines *)
          for _ = 1 to 15 do
            push c t (-2);
            if Ds.top_payload t <> -2 || pop c t <> Ds.inline_public then
              failwith "setup: expected a public inline"
          done;
          push c t 0 (* public at slot 0, wire at 0 *);
          Sched.spawn (fun () ->
              join c t ~record (* 16th public inline => privatize, or stolen *);
              push c t 1 (* re-arms the wire if the privatize fired *);
              join c t ~record;
              Ds.sweep t);
          Sched.spawn (fun () ->
              attempt t ~thief:1 ~record:(fun v ->
                  saw_steal := true;
                  record v));
          Sched.final (fun () ->
              check (execd.(0) = 1) "task 0 not executed exactly once";
              check (execd.(1) = 1) "task 1 not executed exactly once";
              check (!privatizes <= 1) "one inline privatised twice";
              quiescent t;
              balanced c t))
    in
    check !saw_privatize "coverage: privatize never explored";
    check !saw_steal "coverage: successful steal never explored";
    stats
  in
  {
    name = "trip-wire-steal-vs-privatize";
    descr = "adaptive window shrink racing a thief CAS on the wire slot";
    run;
  }

(* -- Scenario 6: the trip wire springs under exploration and the owner
   services the publication while joining — private descriptors become
   public mid-run. *)
let publish_window =
  let run ~max_schedules =
    let saw_publish = ref false and saw_steal = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t =
            Ds.create ~capacity:4 ~publicity:(Ds.Adaptive 2) ~dummy:(-1) ()
          in
          let c = tally () in
          Ds.set_event_hooks t
            ~on_publish:(fun () -> saw_publish := true)
            ~on_privatize:(fun () -> ());
          let execd = Array.make 3 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          (* slots 0,1 public (wire at 1), slot 2 private; slot 0 already
             stolen below the wire *)
          push c t 0;
          push c t 1;
          push c t 2;
          (match Ds.steal t ~thief:7 with
          | Ds.Stolen_task (0, 0) ->
              record 0;
              Ds.complete_steal t ~index:0
          | _ -> failwith "setup: expected to steal task 0");
          Sched.spawn (fun () ->
              join c t ~record;
              join c t ~record;
              join c t ~record;
              Ds.sweep t);
          Sched.spawn (fun () ->
              (* stealing slot 1 fires the wire; the owner's joins must
                 service the publish request *)
              attempt t ~thief:2 ~record:(fun v ->
                  saw_steal := true;
                  record v));
          Sched.final (fun () ->
              for v = 0 to 2 do
                check (execd.(v) = 1)
                  (Printf.sprintf "task %d not executed exactly once" v)
              done;
              quiescent t;
              balanced c t))
    in
    check !saw_publish "coverage: publish service never explored";
    check !saw_steal "coverage: successful steal never explored";
    stats
  in
  {
    name = "publish-window";
    descr = "wire fires mid-run; owner publishes private descriptors";
    run;
  }

(* -- Scenario 6b: leapfrogging under a stolen join. The owner pushes
   tasks 0 and 1, and a thief steals 0. The owner joins 1 inline, then
   pops 0; finding the thief still running, it holds the stolen slot and
   pushes and joins a nested task 2, as a leapfrogging join does, then
   waits for DONE and reclaims. Without [hold] the nested
   push lands on the stolen slot, where the thief's DONE store and the
   nested descriptor overwrite each other. *)
let leapfrog_hold =
  let run ~max_schedules =
    let saw_nested_before_done = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = Ds.create ~capacity:3 ~publicity:Ds.All_public ~dummy:(-1) () in
          let c = tally () in
          let execd = Array.make 3 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          let thief_done = ref false and nested = ref false in
          push c t 0;
          push c t 1;
          Sched.spawn (fun () ->
              join c t ~record;
              let v = Ds.top_payload t in
              let code = pop c t in
              if code < Ds.stolen_finished then record v
              else begin
                let index = Ds.depth t in
                if code >= 0 then begin
                  (* the pool's [leapfrog], with a push for the steal *)
                  Ds.hold t ~index;
                  push c t 2;
                  nested := true;
                  if not !thief_done then saw_nested_before_done := true;
                  join c t ~record;
                  while not (Ds.stolen_done t ~index) do
                    Shadow_atomic.cpu_relax ()
                  done
                end;
                Ds.reclaim t ~index
              end;
              Ds.sweep t);
          Sched.spawn (fun () ->
              match Ds.steal t ~thief:1 with
              | Ds.Stolen_task (v, index) ->
                  record v;
                  Ds.complete_steal t ~index;
                  thief_done := true
              | Ds.Fail | Ds.Backoff -> ());
          Sched.final (fun () ->
              let spawned = if !nested then 3 else 2 in
              Array.iteri
                (fun v n ->
                  check
                    (n = if v < spawned then 1 else 0)
                    (Printf.sprintf "task %d executed %d times" v n))
                execd;
              quiescent t;
              balanced c t))
    in
    check !saw_nested_before_done
      "coverage: nested push before the thief's DONE never explored";
    stats
  in
  {
    name = "leapfrog-hold";
    descr = "owner holds a stolen slot, runs a nested task, then reclaims";
    run;
  }

(* -- Scenario 6c: the owner pushes past the slot array's length while a
   thief steals. This copy of the stack starts with two slots, both
   pushed in setup, so the owner's push of task 2 grows the array to
   four. A grow keeps the old slot records, so a steal through the old
   array takes the record the owner joins through the new one. An
   attempt that read the old array and finds [bot] at its end must fail
   as on an empty stack, though the owner has grown it and published
   task 2. The owner joins once the race is over. *)
let steal_vs_grow =
  let run ~max_schedules =
    let saw_shared = ref false
    and saw_grown = ref false
    and saw_stale = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = Ds.create ~capacity:4 ~publicity:Ds.All_public ~dummy:(-1) () in
          let c = tally () in
          let execd = Array.make 3 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          push c t 0;
          push c t 1;
          Sched.spawn (fun () ->
              (* the thief: its own steals are the only moves of [bot] *)
              let stolen = ref 0 in
              for _ = 1 to 3 do
                let held = Ds.length t in
                match Ds.steal t ~thief:1 with
                | Ds.Stolen_task (v, index) ->
                    if held < Ds.length t then saw_shared := true;
                    if index >= 2 then saw_grown := true;
                    incr stolen;
                    record v;
                    Ds.complete_steal t ~index
                | Ds.Fail ->
                    if held = !stolen && held < Ds.length t then
                      saw_stale := true
                | Ds.Backoff -> failwith "unexpected back-off"
              done);
          Sched.spawn (fun () -> push c t 2);
          Sched.final (fun () ->
              check (Ds.length t = 4) "the array did not grow to 4 slots";
              for _ = 1 to 3 do
                join c t ~record
              done;
              Ds.sweep t;
              for v = 0 to 2 do
                check (execd.(v) = 1)
                  (Printf.sprintf "task %d not executed exactly once" v)
              done;
              quiescent t;
              balanced c t))
    in
    check !saw_shared "coverage: steal through a pre-grow array never explored";
    check !saw_grown "coverage: steal past the initial length never explored";
    check !saw_stale
      "coverage: attempt failing past a pre-grow array's end never explored";
    stats
  in
  {
    name = "steal-vs-grow";
    descr = "owner grows the slot array while a thief steals through it";
    run;
  }

(* -- Scenario 7: the Chase-Lev baseline's classic race — owner pop and
   thief steal meet on the last element and settle it with the CAS on
   [top]. Exercises the second instantiation of the functorised body. *)
let chase_lev_last_task =
  let run ~max_schedules =
    let owner_got = ref false and thief_got = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let q = Cl.create ~capacity:2 ~dummy:(-1) () in
          let execd = Array.make 2 0 in
          let record v = execd.(v) <- execd.(v) + 1 in
          Cl.push q 0;
          Cl.push q 1;
          Sched.spawn (fun () ->
              let pop () =
                match Cl.pop q with
                | Some v ->
                    owner_got := true;
                    record v
                | None -> ()
              in
              pop ();
              pop ());
          Sched.spawn (fun () ->
              match Cl.steal q with
              | `Stolen v ->
                  thief_got := true;
                  record v
              | `Empty | `Retry -> ());
          Sched.final (fun () ->
              (* drain whatever the lost races left behind *)
              let rec drain () =
                match Cl.steal q with
                | `Stolen v ->
                    record v;
                    drain ()
                | `Retry -> drain ()
                | `Empty -> ()
              in
              drain ();
              check (execd.(0) = 1) "task 0 not executed exactly once";
              check (execd.(1) = 1) "task 1 not executed exactly once";
              check (Cl.size q = 0) "deque not drained"))
    in
    check !owner_got "coverage: owner pop never won";
    check !thief_got "coverage: thief steal never won";
    stats
  in
  {
    name = "chase-lev-last-task";
    descr = "owner pop vs thief steal settling the last element";
    run;
  }

(* ---- ingress scenarios: threads call the shipped ingress body
   (lib/deque/ingress_body.ml) as the pool does. A worker delivers a
   popped job as the pool's drain does: the body's dequeue-time decision
   ([must_run]) first, then, if the job must run, its body and the
   settlement the pool's [exec_job] makes. Job [i]'s body counts its own
   runs in [runs.(i)]. Every schedule ends on [settled_once]. *)

module Ig = Ingress_checked

let ingress ?(note = fun _ -> ()) ?(now = fun () -> 0) () : unit Ig.t =
  Ig.create ~capacity:2 ~admission:Reject ~target_ns:0 ~note
    ~fault:(fun () _ -> ())
    ~now

let jobs ?(deadline = max_int) ?token runs =
  let tks = Array.map (fun _ -> Ig.ticket ()) runs in
  let job i =
    let fn () = runs.(i) <- runs.(i) + 1 in
    Ig.J { fn; tk = tks.(i); deadline; token; enq_ns = 0 }
  in
  (tks, Array.mapi (fun i _ -> job i) runs)

let admit ?(admission = Wool_policy.Admission.Reject) t job =
  Ig.admit t ~admission job

let pop (t : unit Ig.t) = Iq.try_pop t.lane

(* The unscheduled prefix of a lifecycle scenario: job 0 admitted, and
   popped when [popped]. *)
let one_job ?now ?deadline ?token ~popped runs =
  let t = ingress ?now () and tks, jobs = jobs ?deadline ?token runs in
  check (admit t jobs.(0)) "setup: admission failed";
  (t, tks, if popped then pop t else None)

let run_job t (Ig.J j as job) =
  if Ig.must_run t () job then
    ignore (Ig.settle t j.tk (Done (Ok (j.fn ()))) : bool)

let rec drain_run t = Option.iter (fun j -> run_job t j; drain_run t) (pop t)

(* Exactly one claim won per ticket: every ticket settled, and the claims
   won — each bumps exactly one of the four settle counters — number the
   admissions, so no admitted ticket was claimed twice. The rest of the
   ledger balances, and the lane is empty. *)
let settled_once (t : unit Ig.t) tks =
  let n = Shadow_atomic.get in
  Array.iteri
    (fun i tk ->
      check (Ig.peek tk <> Pending) (Printf.sprintf "ticket %d stranded" i))
    tks;
  let won = n t.completed + n t.shed + n t.expired + n t.cancelled in
  check (won = n t.admitted)
    (Printf.sprintf "%d claims won for %d admitted tickets" won (n t.admitted));
  check (n t.inflight = 0) "inflight not settled to zero";
  check (n t.submitted = n t.admitted + n t.rejected) "ledger imbalance";
  check (Iq.size t.lane = 0) "lane not empty"

let ran_once_if_admitted runs admitted =
  Array.iteri
    (fun i r ->
      check
        (r = if admitted.(i) then 1 else 0)
        (Printf.sprintf "job %d ran %d times (admitted: %b)" i r admitted.(i)))
    runs

(* -- Scenario 8: submit racing shutdown. The submitter runs the
   admission sequence (stop check -> push -> stop re-check, draining its
   own lane if stop won the race); shutdown sets stop and drains. Under
   every interleaving the ticket resolves (never a stranded submitter)
   and the lane ends empty (no element survives shutdown un-rejected). *)
let submit_vs_shutdown =
  let run ~max_schedules =
    let saw_early_reject = ref false
    and saw_self_drain = ref false
    and saw_shutdown_drain = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          (* thread 0 submits, thread 1 shuts down *)
          let note = function
            | Ig.Drop when Sched.self () = 0 -> saw_self_drain := true
            | Ig.Drop -> saw_shutdown_drain := true
            | Ig.Admit | Ig.Refuse | Ig.Enter -> ()
          in
          let t = ingress ~note () in
          let tks, jobs = jobs [| 0 |] in
          Sched.spawn (fun () ->
              if not (admit t jobs.(0)) then saw_early_reject := true);
          Sched.spawn (fun () ->
              Shadow_atomic.set t.stop true;
              Ig.drain t);
          Sched.final (fun () -> settled_once t tks))
    in
    check !saw_early_reject "coverage: pre-push stop never explored";
    check !saw_self_drain "coverage: submitter self-drain never explored";
    check !saw_shutdown_drain "coverage: shutdown drain never explored";
    stats
  in
  {
    name = "submit-vs-shutdown";
    descr = "admission re-check vs stop/drain: ticket always resolves";
    run;
  }

(* -- Scenario 9: one producer pushing into a *full* lane while a worker
   drains it — the [Reject] admission boundary. The producer's push and
   the worker's pops meet on the same cells, so every interleaving of
   the publish (seq bump) against the probe (seq read) is explored:
   admitted iff a pop freed a slot before the probe, and an admitted job
   runs exactly once. This scenario is what catches the capacity-1
   lap bug (a producer one lap ahead reading a published seq as free). *)
let submit_vs_drain =
  let run ~max_schedules =
    let saw_reject = ref false and saw_admit = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = ingress () in
          let runs = Array.make 3 0 and admitted = [| true; true; false |] in
          let tks, jobs = jobs runs in
          (* unscheduled prefix: the lane is full *)
          check (admit t jobs.(0) && admit t jobs.(1)) "setup: prefill failed";
          Sched.spawn (fun () -> admitted.(2) <- admit t jobs.(2));
          Sched.spawn (fun () ->
              (* one drain pass per prefilled slot *)
              Option.iter (run_job t) (pop t);
              Option.iter (run_job t) (pop t));
          Sched.final (fun () ->
              (* quiescent drain of whatever the worker raced past *)
              drain_run t;
              settled_once t tks;
              ran_once_if_admitted runs admitted;
              if admitted.(2) then saw_admit := true else saw_reject := true))
    in
    check !saw_reject "coverage: full-lane rejection never explored";
    check !saw_admit "coverage: freed-slot admission never explored";
    stats
  in
  {
    name = "submit-vs-drain";
    descr = "producer vs draining worker on a full lane (Reject boundary)";
    run;
  }

(* -- Scenario 10: two producers racing for the last free slot — the
   enqueue-cursor CAS race. Exactly one may claim it; the loser's failed
   CAS must re-probe and observe full (never spin forever, never
   overwrite), mirroring the two-thieves steal race on the deque side. *)
let submit_vs_submit =
  let run ~max_schedules =
    let wins = [| false; false |] in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = ingress () in
          let runs = Array.make 3 0 and admitted = [| true; false; false |] in
          let tks, jobs = jobs runs in
          (* unscheduled prefix: one slot taken, one free *)
          check (admit t jobs.(0)) "setup: prefill failed";
          let producer i =
            admitted.(i) <- admit t jobs.(i);
            if admitted.(i) then wins.(i - 1) <- true
          in
          Sched.spawn (fun () -> producer 1);
          Sched.spawn (fun () -> producer 2);
          Sched.final (fun () ->
              check
                (not (admitted.(1) && admitted.(2)))
                "both producers claimed the single free slot";
              check
                (admitted.(1) || admitted.(2))
                "the free slot admitted nobody";
              drain_run t;
              settled_once t tks;
              ran_once_if_admitted runs admitted))
    in
    check wins.(0) "coverage: producer 1 never won the slot";
    check wins.(1) "coverage: producer 2 never won the slot";
    stats
  in
  {
    name = "submit-vs-submit";
    descr = "enqueue-cursor CAS race for the last free slot";
    run;
  }

(* -- Scenario 11: [Shed_oldest] admission on a full lane while a worker
   drains it. The producer's shed pops the oldest job and settles it
   rejected; the worker pops the job it reaches, and its delivery (run,
   settle) completes in the final block, since settling a different
   ticket races nothing. The two pops meet on the same cells, so each
   job is shed or run, never both and never neither: every ticket
   settles exactly once, the ledger balances (admitted = completed +
   shed + expired + cancelled), and the lane ends empty. *)
let shed_vs_drain =
  let run ~max_schedules =
    let saw_no_shed = ref false
    and saw_shed_oldest = ref false
    and saw_shed_next = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = ingress () in
          let runs = Array.make 3 0 and admitted = ref false
          and taken = ref None in
          let tks, jobs = jobs runs in
          (* unscheduled prefix: the lane is full *)
          check (admit t jobs.(0) && admit t jobs.(1)) "setup: prefill failed";
          Sched.spawn (fun () ->
              admitted := admit ~admission:Shed_oldest t jobs.(2));
          Sched.spawn (fun () -> taken := pop t);
          Sched.final (fun () ->
              check !admitted "shedding admission refused a job";
              Option.iter (run_job t) !taken;
              drain_run t;
              settled_once t tks;
              Array.iteri
                (fun i tk ->
                  match Ig.peek tk with
                  | Done _ ->
                      check (runs.(i) = 1)
                        (Printf.sprintf "job %d done but ran %d times" i
                           runs.(i))
                  | Rejected ->
                      check (runs.(i) = 0) (Printf.sprintf "shed job %d ran" i);
                      if i = 0 then saw_shed_oldest := true
                      else saw_shed_next := true
                  | _ -> failwith "impossible ticket state")
                tks;
              if Shadow_atomic.get t.shed = 0 then saw_no_shed := true))
    in
    check !saw_no_shed "coverage: a drained slot admitting unshed never explored";
    check !saw_shed_oldest "coverage: shedding the oldest job never explored";
    check !saw_shed_next
      "coverage: shedding past a job the worker took never explored";
    stats
  in
  {
    name = "shed-vs-drain";
    descr = "Shed_oldest eviction vs a draining worker on a full lane";
    run;
  }

(* -- Scenario 12: [Block] admission on a full lane while a worker
   drains it. The producer waits for a slot, reading stop before each
   retry push so that its pause follows the failed push directly; the
   worker's pop frees the slot with the write that pause waits for. The
   worker pops twice, and what it took runs in the final block, as in
   [shed_vs_drain]; the producer's push lands between the two pops or
   after both. The producer is always admitted, every ticket settles
   once, the ledger balances, and no schedule deadlocks. *)
let block_vs_drain =
  let run ~max_schedules =
    let saw_between = ref false and saw_after = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          (* the worker's completed pops, as the producer's push sees them *)
          let pops = ref 0 and pops_at_admit = ref 0 in
          let note = function
            | Ig.Admit -> pops_at_admit := !pops
            | Ig.Refuse | Ig.Drop | Ig.Enter -> ()
          in
          let t = ingress ~note () in
          let runs = Array.make 3 0 and admitted = ref false in
          let tks, jobs = jobs runs in
          (* unscheduled prefix: the lane is full *)
          check (admit t jobs.(0) && admit t jobs.(1)) "setup: prefill failed";
          let taken = ref [] in
          Sched.spawn (fun () -> admitted := admit ~admission:Block t jobs.(2));
          Sched.spawn (fun () ->
              for _ = 1 to 2 do
                Option.iter (fun j -> taken := j :: !taken) (pop t);
                incr pops
              done);
          Sched.final (fun () ->
              check !admitted "blocking admission refused a job";
              if !pops_at_admit = 1 then saw_between := true
              else saw_after := true;
              List.iter (run_job t) (List.rev !taken);
              drain_run t;
              settled_once t tks;
              ran_once_if_admitted runs [| true; true; true |]))
    in
    check !saw_between "coverage: admission between the two pops never explored";
    check !saw_after "coverage: admission after both pops never explored";
    stats
  in
  {
    name = "block-vs-drain";
    descr = "Block admission waiting on a full lane vs a draining worker";
    run;
  }

(* -- Scenario 13: one producer admitting while the lane's one worker
   parks. The worker runs a server pool's idle loop reduced to the
   lane: it pops, and on an empty lane calls the body's [poll] (one
   poll here) and then, unless the poll saw a job come in flight, its
   [park]. When [park] finds a job in flight the pool would nap; here
   the worker polls once more and, on a miss, waits for the next write
   (a pause right after the failed pop's read, which the producer's
   publish ends). A wake lost between the worker's re-check and its
   wait leaves it parked after the producer has finished: a deadlock.
   The job the worker took runs in the final block, since its
   settlement races nothing. The worker always takes the job, which
   runs once, its ticket settles once, and no worker is left
   registered. *)
let submit_vs_park =
  let run ~max_schedules =
    let saw_wait = ref false
    and saw_busy = ref false
    and saw_no_park = ref false
    and saw_poll = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let t = ingress () in
          let runs = [| 0 |] in
          let tks, jobs = jobs runs in
          let parks = ref 0 and taken = ref None in
          Sched.spawn (fun () -> check (admit t jobs.(0)) "admission refused");
          Sched.spawn (fun () ->
              let rec serve ~napped =
                match pop t with
                | Some _ as job -> taken := job
                | None when napped ->
                    Shadow_atomic.cpu_relax ();
                    serve ~napped:false
                | None when Ig.poll t 0 ->
                    saw_poll := true;
                    serve ~napped:false
                | None ->
                    incr parks;
                    let idle = Ig.park t in
                    if not idle then saw_busy := true;
                    serve ~napped:(not idle)
              in
              serve ~napped:false);
          Sched.final (fun () ->
              check (Option.is_some !taken) "the worker never took the job";
              Option.iter (run_job t) !taken;
              settled_once t tks;
              ran_once_if_admitted runs [| true |];
              check (Shadow_atomic.get t.parked = 0) "a worker left registered";
              if !parks = 0 then saw_no_park := true;
              if Shadow_atomic.get t.gate > 0 then saw_wait := true))
    in
    check !saw_wait "coverage: a wake of a parked worker never explored";
    check !saw_busy "coverage: the re-check finding a job never explored";
    check !saw_no_park "coverage: a first poll finding the job never explored";
    check !saw_poll "coverage: a job admitted during the poll never explored";
    stats
  in
  {
    name = "submit-vs-park";
    descr = "admission vs an idle worker parking: no lost wake";
    run;
  }

(* ---- lifecycle scenarios: cancellation and deadlines on the shipped
   ingress body. The dequeue-time decision is [Ig.must_run], reading a
   real token and a virtual clock. Completions, cancels, expiries and
   shutdown drops all ride the ticket's one claim. *)

(* -- Scenario C1: cancel racing delivery, with multiplicity. A
   canceller sets the token while two deliveries of the same job (the
   duplicate the [Dup] drain fault produces) each run the worker's
   check-token / run / settle sequence. Under every interleaving the
   ticket resolves exactly once — done or cancelled — and the body runs
   at most once per delivery, never by a delivery that observed the
   token. *)
let cancel_vs_complete =
  let run ~max_schedules =
    let saw_done = ref false
    and saw_cancelled = ref false
    and saw_dup_run = ref false
    and saw_cancel_after_run = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let token = Shadow_atomic.make false and runs = [| 0 |] in
          let t, tks, job = one_job ~token ~popped:true runs in
          let job = Option.get job in
          Sched.spawn (fun () -> run_job t job);
          Sched.spawn (fun () -> run_job t job);
          Sched.spawn (fun () -> Shadow_atomic.set token true);
          Sched.final (fun () ->
              settled_once t tks;
              check (runs.(0) <= 2) "body ran more than its two deliveries";
              if runs.(0) = 2 then saw_dup_run := true;
              match Ig.peek tks.(0) with
              | Done _ -> saw_done := true
              | Cancelled ->
                  saw_cancelled := true;
                  if runs.(0) > 0 then saw_cancel_after_run := true
              | _ -> failwith "ticket resolved to an impossible state"))
    in
    check !saw_done "coverage: completion winning never explored";
    check !saw_cancelled "coverage: cancel winning never explored";
    check !saw_dup_run "coverage: duplicate execution never explored";
    check !saw_cancel_after_run
      "coverage: cancel settling against a racing run never explored";
    stats
  in
  {
    name = "cancel-vs-complete";
    descr = "token set vs duplicate deliveries: one settlement wins";
    run;
  }

(* -- Scenario C2: expiry racing dequeue on a virtual clock. A ticker
   advances the clock past the job's deadline while the worker performs
   the dequeue-time expiry check; whichever way the race lands, an
   expired settlement means the body never ran and a done settlement
   means it ran exactly once. *)
let expire_vs_dequeue =
  let run ~max_schedules =
    let saw_run = ref false and saw_expired = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let clock = Shadow_atomic.make 0 and runs = [| 0 |] in
          let now () = Shadow_atomic.get clock in
          let t, tks, job = one_job ~now ~deadline:1 ~popped:true runs in
          let job = Option.get job in
          Sched.spawn (fun () ->
              (* the clock ticking past the deadline *)
              Shadow_atomic.set clock 1;
              Shadow_atomic.set clock 2);
          Sched.spawn (fun () -> run_job t job);
          Sched.final (fun () ->
              settled_once t tks;
              match Ig.peek tks.(0) with
              | Done _ ->
                  saw_run := true;
                  check (runs.(0) = 1) "completed job did not run exactly once"
              | Expired ->
                  saw_expired := true;
                  check (runs.(0) = 0) "expired job ran anyway"
              | _ -> failwith "impossible ticket state"))
    in
    check !saw_run "coverage: in-deadline run never explored";
    check !saw_expired "coverage: expiry drop never explored";
    stats
  in
  {
    name = "expire-vs-dequeue";
    descr = "deadline passing vs the dequeue-time expiry check";
    run;
  }

(* -- Scenario C3: a cancelled job racing shutdown. One job sits in a
   lane with its token already set; the worker's drain (which drops it
   cancelled) races the shutdown drain (which rejects it). Either drop
   is legal — the invariants are that exactly one wins, the body never
   runs, and the lane ends empty. *)
let cancel_vs_shutdown =
  let run ~max_schedules =
    let saw_cancelled = ref false and saw_rejected = ref false in
    let stats =
      Sched.run ~max_schedules (fun () ->
          let runs = [| 0 |] in
          let token = Shadow_atomic.make true in
          let t, tks, _ = one_job ~token ~popped:false runs in
          Sched.spawn (fun () -> Option.iter (run_job t) (pop t));
          Sched.spawn (fun () ->
              Shadow_atomic.set t.stop true;
              Ig.drain t);
          Sched.final (fun () ->
              settled_once t tks;
              check (runs.(0) = 0) "cancelled job ran";
              match Ig.peek tks.(0) with
              | Cancelled -> saw_cancelled := true
              | Rejected -> saw_rejected := true
              | _ -> failwith "impossible ticket state"))
    in
    check !saw_cancelled "coverage: worker cancel-drop never won";
    check !saw_rejected "coverage: shutdown reject-drain never won";
    stats
  in
  {
    name = "cancel-vs-shutdown";
    descr = "pre-cancelled job: worker drop vs shutdown drain";
    run;
  }

let all =
  [
    single_task_lifecycle;
    stack_vs_one_thief;
    two_thieves_one_task;
    recycled_descriptor_backoff;
    trip_wire_steal_vs_privatize;
    publish_window;
    leapfrog_hold;
    steal_vs_grow;
    chase_lev_last_task;
    submit_vs_shutdown;
    submit_vs_drain;
    submit_vs_submit;
    shed_vs_drain;
    block_vs_drain;
    submit_vs_park;
    cancel_vs_complete;
    expire_vs_dequeue;
    cancel_vs_shutdown;
  ]
