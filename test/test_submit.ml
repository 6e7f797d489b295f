(* The ingress surface: Wool.Submit tickets (lifecycle, idempotence,
   exception transport), admission policies on a full lane, batch
   submission, shutdown-vs-submit determinism, and server-mode pools.

   Many cases want a lane nobody drains, so the tickets stay observable:
   a non-server pool with [workers = 1] provides that — its only worker
   is the creating domain, which drains lanes only inside [run]. *)

exception Boom of int

(* -- ticket lifecycle -- *)

let test_submit_await () =
  Test_util.with_pool ~workers:2 ~server:true (fun pool ->
      let tk = Wool.Submit.submit pool (fun _ctx -> 21 * 2) in
      Alcotest.(check int) "result" 42 (Wool.Submit.await tk))

let test_await_idempotent () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let tk = Wool.Submit.submit pool (fun _ctx -> "once") in
      Alcotest.(check string) "first" "once" (Wool.Submit.await tk);
      Alcotest.(check string) "second" "once" (Wool.Submit.await tk))

let test_poll_lifecycle () =
  (* nobody drains until [run]: the ticket is observably pending first *)
  let pool = Test_util.create ~workers:1 () in
  let tk = Wool.Submit.submit pool (fun _ctx -> 7) in
  (match Wool.Submit.poll tk with
  | `Pending -> ()
  | _ -> Alcotest.fail "undrained ticket must poll Pending");
  (* run drains the jobs queued ahead of its own first, so ours ran
     before run returned *)
  Alcotest.(check int) "run alongside" 5 (Wool.run pool (fun _ctx -> 5));
  (match Wool.Submit.poll tk with
  | `Done (Ok 7) -> ()
  | `Done (Ok v) -> Alcotest.failf "polled Done %d, expected 7" v
  | `Done (Error e) -> Alcotest.failf "polled %s" (Printexc.to_string e)
  | `Pending -> Alcotest.fail "drained ticket still Pending"
  | `Rejected | `Cancelled | `Expired ->
      Alcotest.fail "drained ticket polled a dropped state");
  Alcotest.(check int) "await after poll" 7 (Wool.Submit.await tk);
  Wool.shutdown pool

let test_exception_propagates () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let tk = Wool.Submit.submit pool (fun _ctx -> raise (Boom 3)) in
      (match Wool.Submit.poll tk with
      | `Done (Error (Boom 3)) -> ()
      | `Pending -> (
          (* racing the worker: await settles it, then re-poll *)
          match Wool.Submit.await tk with
          | exception Boom 3 -> ()
          | _ -> Alcotest.fail "await did not raise Boom")
      | _ -> Alcotest.fail "failed job must poll Done (Error _)");
      match Wool.Submit.await tk with
      | exception Boom 3 -> ()
      | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "await of a failed job must raise")

let test_await_after_shutdown_rejects () =
  (* queued, never drained: the shutdown drain must resolve it rejected,
     and await afterwards must not hang *)
  let pool = Test_util.create ~workers:1 () in
  let tk = Wool.Submit.submit pool (fun _ctx -> 1) in
  Wool.shutdown pool;
  (match Wool.Submit.poll tk with
  | `Rejected -> ()
  | _ -> Alcotest.fail "shutdown-drained ticket must poll Rejected");
  match Wool.Submit.await tk with
  | exception Wool.Submission_rejected -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "await of a shed ticket must raise Rejected"

let test_resolved_ticket_survives_shutdown () =
  let pool = Test_util.create ~workers:1 ~server:true () in
  let tk = Wool.Submit.submit pool (fun _ctx -> 99) in
  Alcotest.(check int) "before" 99 (Wool.Submit.await tk);
  Wool.shutdown pool;
  Alcotest.(check int) "after shutdown" 99 (Wool.Submit.await tk)

let test_submit_after_shutdown_rejects () =
  let pool = Test_util.create ~workers:1 () in
  Wool.shutdown pool;
  let tk = Wool.Submit.submit pool (fun _ctx -> 1) in
  (match Wool.Submit.poll tk with
  | `Rejected -> ()
  | _ -> Alcotest.fail "post-shutdown submit must resolve rejected");
  Alcotest.(check bool)
    "try_submit post-shutdown" true
    (Wool.Submit.try_submit pool (fun _ctx -> 1) = None)

(* -- admission policies -- *)

let test_reject_on_full_lane () =
  let pool =
    Test_util.create ~workers:1 ~injection_capacity:2 ~admission:Wool.Reject
      ()
  in
  let t1 = Wool.Submit.submit pool (fun _ctx -> 1) in
  let t2 = Wool.Submit.submit pool (fun _ctx -> 2) in
  let t3 = Wool.Submit.submit pool (fun _ctx -> 3) in
  (match Wool.Submit.poll t3 with
  | `Rejected -> ()
  | _ -> Alcotest.fail "third submit into a 2-slot lane must reject");
  (match Wool.Submit.poll t1 with
  | `Pending -> ()
  | _ -> Alcotest.fail "admitted tickets stay pending");
  let ig = Wool.ingress_stats pool in
  Alcotest.(check int) "submitted" 3 ig.Wool.submitted;
  Alcotest.(check int) "admitted" 2 ig.Wool.admitted;
  Alcotest.(check int) "rejected" 1 ig.Wool.rejected;
  Wool.shutdown pool;
  (* the two queued jobs were drained-rejected *)
  List.iter
    (fun tk ->
      match Wool.Submit.await tk with
      | exception Wool.Submission_rejected -> ()
      | _ -> Alcotest.fail "queued ticket must reject at shutdown")
    [ t1; t2 ];
  let ig = Wool.ingress_stats pool in
  Alcotest.(check int) "shed by drain" 2 ig.Wool.shed

let test_shed_oldest () =
  let pool =
    Test_util.create ~workers:1 ~injection_capacity:2
      ~admission:Wool.Shed_oldest ()
  in
  let t1 = Wool.Submit.submit pool (fun _ctx -> 1) in
  let _t2 = Wool.Submit.submit pool (fun _ctx -> 2) in
  let t3 = Wool.Submit.submit pool (fun _ctx -> 3) in
  (match Wool.Submit.poll t1 with
  | `Rejected -> ()
  | _ -> Alcotest.fail "oldest ticket must be shed");
  (match Wool.Submit.poll t3 with
  | `Pending -> ()
  | _ -> Alcotest.fail "newest submission must be admitted");
  let ig = Wool.ingress_stats pool in
  Alcotest.(check int) "all admitted" 3 ig.Wool.admitted;
  Alcotest.(check bool) "shed at least one" true (ig.Wool.shed >= 1);
  Wool.shutdown pool

let test_try_submit_full_lane () =
  List.iter
    (fun admission ->
      let name = Wool_policy.Admission.name admission in
      let pool =
        Test_util.create ~workers:1 ~injection_capacity:2 ~admission ()
      in
      let t1 = Wool.Submit.submit pool (fun _ctx -> 1) in
      let t2 = Wool.Submit.submit pool (fun _ctx -> 2) in
      (* one-shot admission whatever the policy: Block must not wait (no
         worker domain drains this pool), Shed_oldest must not evict *)
      let t0 = Wool_util.Clock.now_ns () in
      Alcotest.(check bool)
        (name ^ ": refused") true
        (Wool.Submit.try_submit pool (fun _ctx -> 3) = None);
      Alcotest.(check bool)
        (name ^ ": no wait") true
        (Wool_util.Clock.now_ns () - t0 < 1_000_000_000);
      Alcotest.(check int)
        (name ^ ": nothing shed") 0 (Wool.ingress_stats pool).Wool.shed;
      ignore (Wool.run pool (fun _ctx -> 0) : int);
      Alcotest.(check int) (name ^ ": first job") 1 (Wool.Submit.await t1);
      Alcotest.(check int) (name ^ ": second job") 2 (Wool.Submit.await t2);
      Alcotest.(check (list string))
        (name ^ ": invariants") [] (Wool.Invariants.check pool);
      Wool.shutdown pool)
    [ Wool.Block; Wool.Reject; Wool.Shed_oldest; Wool.Adaptive ]

(* -- batches -- *)

let test_submit_batch () =
  Test_util.with_pool ~workers:2 ~server:true (fun pool ->
      let tks =
        Wool.Submit.submit_batch pool
          (List.init 5 (fun i _ctx -> i * i))
      in
      Alcotest.(check int) "five tickets" 5 (List.length tks);
      List.iteri
        (fun i tk ->
          Alcotest.(check int)
            (Printf.sprintf "batch element %d" i)
            (i * i) (Wool.Submit.await tk))
        tks)

let test_submit_batch_partial_reject () =
  let pool =
    Test_util.create ~workers:1 ~injection_capacity:2 ~admission:Wool.Reject
      ()
  in
  let tks = Wool.Submit.submit_batch pool (List.init 4 (fun i _ctx -> i)) in
  let pending, rejected =
    List.partition (fun tk -> Wool.Submit.poll tk = `Pending) tks
  in
  Alcotest.(check int) "admitted prefix" 2 (List.length pending);
  Alcotest.(check int) "rejected suffix" 2 (List.length rejected);
  Wool.shutdown pool

(* -- server mode and multi-producer traffic -- *)

let test_server_run () =
  Test_util.with_pool ~workers:2 ~server:true (fun pool ->
      Alcotest.(check int) "fib 10" (Test_util.fib_serial 10)
        (Wool.run pool (fun ctx -> Test_util.fib ctx 10)))

let test_multi_producer () =
  (* two non-worker producer domains submitting concurrently into a
     server pool; every ticket must resolve with its own value *)
  Test_util.with_pool ~workers:2 ~server:true (fun pool ->
      let producer base () =
        List.init 8 (fun i ->
            (base + i, Wool.Submit.submit pool (fun _ctx -> base + i)))
      in
      let d1 = Domain.spawn (producer 100) in
      let d2 = Domain.spawn (producer 200) in
      let tks = Domain.join d1 @ Domain.join d2 in
      List.iter
        (fun (expect, tk) ->
          Alcotest.(check int) "producer result" expect
            (Wool.Submit.await tk))
        tks;
      let ig = Wool.ingress_stats pool in
      Alcotest.(check int) "all submitted" 16 ig.Wool.submitted;
      Alcotest.(check int) "all executed" 16 ig.Wool.executed;
      Alcotest.(check (list string))
        "quiescent" [] (Wool.Invariants.check pool))

let test_injected_jobs_can_spawn () =
  (* an injected job is real task code: it gets a ctx and may fork *)
  Test_util.with_pool ~workers:2 ~server:true (fun pool ->
      let tk =
        Wool.Submit.submit pool (fun ctx -> Test_util.fib ctx 12)
      in
      Alcotest.(check int) "fib 12 via ingress" (Test_util.fib_serial 12)
        (Wool.Submit.await tk))

(* An idle server worker parks on the ingress instead of napping in a
   loop: a count, not a time. Left idle for 100 ms, the one worker
   records at most two [Nap_enter]s (its park, and a nap should its
   first park find the startup's state still moving), where napping
   records one per 50 µs unit. A submission wakes it, and shutdown of
   the parked pool returns. *)
let test_idle_server_worker_parks () =
  let pool = Test_util.create ~workers:1 ~server:true () in
  Unix.sleepf 0.1;
  let naps = Wool.Stats.count (Wool.Stats.aggregate pool) Nap_enter in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 naps in 100 ms idle (read %d)" naps)
    true (naps <= 2);
  Alcotest.(check int) "a submission wakes it" 42
    (Wool.Submit.await (Wool.Submit.submit pool (fun _ctx -> 42)));
  (* long enough for the worker to park again before the shutdown *)
  Unix.sleepf 0.01;
  Wool.shutdown pool

(* An idle server worker polls through a short gap before it parks: a
   1-worker server pool that gets one job about every 100 µs, 200 in
   all, records far fewer parks (a park is one [Nap_enter]) than jobs.
   Parking once the backoff's 64 failed polls run out, about 3 µs
   after each job, parks in every gap. The producer sleeps through the
   gap rather than spinning: on a host with one free core, a spinning
   producer and the polling worker take turns on it in scheduler
   slices, and the window can run out while the producer waits. *)
let test_server_worker_polls_short_gaps () =
  let pool = Test_util.create ~workers:1 ~server:true () in
  Unix.sleepf 0.01;
  let naps () = Wool.Stats.count (Wool.Stats.aggregate pool) Nap_enter in
  let before = naps () in
  for _ = 1 to 200 do
    Wool.Submit.await (Wool.Submit.submit pool (fun _ctx -> ()));
    Unix.sleepf 100e-6
  done;
  let parks = naps () - before in
  Wool.shutdown pool;
  Alcotest.(check bool)
    (Printf.sprintf "fewer than 50 parks in 200 jobs (read %d)" parks)
    true (parks < 50)

(* A job in flight keeps every sibling awake to steal: both workers of
   an idle 2-worker server pool park, a submission wakes one, and the
   job it runs spawns a child and then waits, without joining, for a
   flag only the child sets. Only a sibling's steal can run the child,
   so the wait times out if a sibling stays parked while the job is in
   flight. *)
let test_sibling_steals_from_injected_job () =
  Test_util.with_pool ~workers:2 ~server:true ~mode:Wool.Private
    ~publicity:Wool.All_public (fun pool ->
      Unix.sleepf 0.05;
      let tk =
        Wool.Submit.submit pool (fun ctx ->
            let flag = Atomic.make false in
            let child = Wool.spawn ctx (fun _ctx -> Atomic.set flag true) in
            let stolen =
              Test_util.spin_until ~timeout_ns:2_000_000_000 (fun () ->
                  Atomic.get flag)
            in
            Wool.join ctx child;
            stolen)
      in
      Alcotest.(check bool) "the child ran on a sibling" true
        (Wool.Submit.await tk))

(* -- duplicate completions: the ticket layer settles exactly once -- *)

(* Force the [Dup] drain fault so the submitted body really executes
   twice, then prove the ticket still resolves exactly once:
   [await]/[poll] observe the first result only, the in-flight count
   settles, and the invariant checker stays green. A 1-worker non-server
   pool drains the lane synchronously inside [run], so there is no racing
   second execution left when we read the counter. Swept over every
   mode. *)
let test_ticket_dedup_under_dup_fault () =
  List.iter
    (fun (nm, mode) ->
      let plan =
        Wool_fault.Plan.make ~name:"dup-drain" ~seed:7
          [
            {
              Wool_fault.Plan.site = Wool_fault.Site.Drain;
              kind = Wool_fault.Kind.Dup;
              rate = 1.0;
              max_fires = 8;
            };
          ]
      in
      let config = Wool.Config.make ~workers:1 ~mode ~faults:plan () in
      let pool = Wool.create ~config () in
      let runs = Atomic.make 0 in
      let tk =
        Wool.Submit.submit pool (fun _ctx ->
            Atomic.fetch_and_add runs 1)
      in
      Alcotest.(check int) (nm ^ " run alongside") 0
        (Wool.run pool (fun _ctx -> 0));
      Alcotest.(check int) (nm ^ " body executed twice") 2 (Atomic.get runs);
      (* first-writer-wins: the second completion (which returned 1) is
         invisible to the ticket *)
      Alcotest.(check int) (nm ^ " await sees first result") 0
        (Wool.Submit.await tk);
      (match Wool.Submit.poll tk with
      | `Done (Ok 0) -> ()
      | `Done (Ok v) ->
          Alcotest.failf "%s: poll observed duplicate result %d" nm v
      | _ -> Alcotest.failf "%s: drained ticket must poll Done (Ok _)" nm);
      let ig = Wool.ingress_stats pool in
      Alcotest.(check int) (nm ^ " inflight settled") 0 ig.Wool.inflight;
      Alcotest.(check (list string))
        (nm ^ " invariants") []
        (Wool.Invariants.check pool);
      Wool.shutdown pool)
    Test_util.all_modes

(* -- awaiting on a busy pool: an awaiter with its own later jobs in
   flight naps, and blocks after the nap window; one with a single job
   outstanding blocks at once -- *)

(* 200 submissions back to back to a 1-worker server pool, awaited in
   order: every await but the last has later jobs of its own in flight,
   so it naps instead of blocking. *)
let test_awaits_in_order_busy () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let tks =
        Array.init 200 (fun i -> Wool.Submit.submit pool (fun _ctx -> 3 * i))
      in
      Array.iteri
        (fun i tk ->
          let v = Wool.Submit.await tk in
          if v <> 3 * i then Alcotest.failf "await %d returned %d" i v)
        tks;
      Alcotest.(check (list string))
        "invariants" [] (Wool.Invariants.check pool))

(* The await's branches on a bare ingress, [Wool_deque.Ingress] driven
   by hand: two jobs are in flight, this domain awaits the first, and a
   helper domain plays its worker. The helper runs [watch] on the
   pool's count of registered (blocked) awaiters, then settles the
   first job; [await_watched] returns what [watch] returned. *)
module Ig = Wool_deque.Ingress

let await_watched ~backlog ~window watch =
  let t =
    Ig.create ~capacity:4 ~admission:Reject ~target_ns:0
      ~note:(fun _ -> ())
      ~fault:(fun () _ -> ())
      ~now:(fun () -> 0)
  in
  let admitted () =
    let tk = Ig.ticket t in
    let job =
      Ig.J { fn = ignore; tk; deadline = max_int; token = None; enq_ns = 0 }
    in
    if not (Ig.admit t ~admission:Reject job) then
      Alcotest.fail "setup: admission refused";
    tk
  in
  let tk = admitted () in
  ignore (admitted () : unit Ig.ticket);
  let helper =
    Domain.spawn (fun () ->
        let seen = watch t.cells.sleepers in
        ignore (Ig.settle t tk (Done (Ok ())) : bool);
        seen)
  in
  (match Ig.await ~backlog window tk with
  | Done (Ok ()) -> ()
  | _ -> Alcotest.fail "the await returned an unsettled state");
  Domain.join helper

let registered sleepers =
  Test_util.spin_until ~timeout_ns:5_000_000_000 (fun () ->
      Atomic.get sleepers = 1)

(* A 5 ms job, ten times the 0.5 ms nap window, with a later job of the
   awaiter's in flight behind it: the awaiter naps through the window,
   then registers and blocks, and the settle wakes it. An awaiter that
   napped until the settle would never register. *)
let test_await_outlasting_window () =
  let blocked =
    await_watched ~backlog:true ~window:500_000 (fun sleepers ->
        Unix.sleepf 0.005;
        registered sleepers)
  in
  Alcotest.(check bool) "the awaiter blocked and was woken" true blocked

(* An awaiter with one job outstanding, on a pool another producer's
   job keeps busy, blocks after its re-reads. The nap window here is
   10 s, so an awaiter that napped would not register within the
   helper's 5 s. *)
let test_lone_await_blocks () =
  let blocked =
    await_watched ~backlog:false ~window:10_000_000_000 registered
  in
  Alcotest.(check bool) "the awaiter blocked at once" true blocked

(* With later jobs of its own in flight, the awaiter naps: 20 ms into a
   10 s window it has not registered, and the settle ends its nap. *)
let test_backlog_await_naps () =
  let unregistered =
    await_watched ~backlog:true ~window:10_000_000_000 (fun sleepers ->
        Unix.sleepf 0.02;
        Atomic.get sleepers = 0)
  in
  Alcotest.(check bool) "the awaiter napped" true unregistered

let suite =
  [
    ( "submit",
      [
        Alcotest.test_case "submit and await" `Quick test_submit_await;
        Alcotest.test_case "await idempotent" `Quick test_await_idempotent;
        Alcotest.test_case "poll lifecycle" `Quick test_poll_lifecycle;
        Alcotest.test_case "exception propagates" `Quick
          test_exception_propagates;
        Alcotest.test_case "await after shutdown rejects" `Quick
          test_await_after_shutdown_rejects;
        Alcotest.test_case "resolved ticket survives shutdown" `Quick
          test_resolved_ticket_survives_shutdown;
        Alcotest.test_case "submit after shutdown rejects" `Quick
          test_submit_after_shutdown_rejects;
        Alcotest.test_case "reject on full lane" `Quick
          test_reject_on_full_lane;
        Alcotest.test_case "shed oldest" `Quick test_shed_oldest;
        Alcotest.test_case "try_submit on full lane" `Quick
          test_try_submit_full_lane;
        Alcotest.test_case "submit_batch" `Quick test_submit_batch;
        Alcotest.test_case "batch partial reject" `Quick
          test_submit_batch_partial_reject;
        Alcotest.test_case "server-mode run" `Quick test_server_run;
        Alcotest.test_case "multi-producer domains" `Quick
          test_multi_producer;
        Alcotest.test_case "idle server worker parks" `Quick
          test_idle_server_worker_parks;
        Alcotest.test_case "server worker polls short gaps" `Quick
          test_server_worker_polls_short_gaps;
        Alcotest.test_case "awaits in order on a busy pool" `Quick
          test_awaits_in_order_busy;
        Alcotest.test_case "await outlasting the window" `Quick
          test_await_outlasting_window;
        Alcotest.test_case "lone await on a busy pool blocks" `Quick
          test_lone_await_blocks;
        Alcotest.test_case "await with a backlog naps" `Quick
          test_backlog_await_naps;
        Alcotest.test_case "sibling steals from injected job" `Quick
          test_sibling_steals_from_injected_job;
        Alcotest.test_case "injected jobs can spawn" `Quick
          test_injected_jobs_can_spawn;
        Alcotest.test_case "ticket dedup under dup fault" `Quick
          test_ticket_dedup_under_dup_fault;
      ] );
  ]
