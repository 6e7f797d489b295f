(* The submission lifecycle layer: per-job deadlines (lazy expiry at
   dequeue), cooperative cancellation (before start, mid-run, and at
   spawn boundaries), timed awaits, retrying submission, and the
   adaptive overload controller.

   As in test_submit, cases that need an observable queue use a
   non-server [workers = 1] pool: nothing drains the lanes until [run]
   or [shutdown], so a ticket's pending/dropped states can be asserted
   deterministically. *)

(* -- deadlines -- *)

let test_expired_drop () =
  let pool = Test_util.create ~workers:1 () in
  let ran = Atomic.make 0 in
  let tk =
    Wool.Submit.submit
      ~deadline:(Wool_util.Clock.now_ns () - 1)
      pool
      (fun _ctx -> Atomic.incr ran)
  in
  (match Wool.Submit.poll tk with
  | `Pending -> ()
  | _ -> Alcotest.fail "undrained ticket must poll Pending");
  (* draining run's root necessarily dequeued — and dropped — ours first *)
  Alcotest.(check int) "run alongside" 5 (Wool.run pool (fun _ctx -> 5));
  (match Wool.Submit.poll tk with
  | `Expired -> ()
  | _ -> Alcotest.fail "stale job must poll Expired");
  (match Wool.Submit.await tk with
  | exception Wool.Submission_expired -> ()
  | _ -> Alcotest.fail "await on an expired ticket must raise Expired");
  Alcotest.(check int) "body never ran" 0 (Atomic.get ran);
  let ig = Wool.ingress_stats pool in
  Alcotest.(check int) "expired" 1 ig.Wool.expired;
  Alcotest.(check (list string)) "invariants" [] (Wool.Invariants.check pool);
  Wool.shutdown pool

let test_future_deadline_runs () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      (* a span too large for an int, and infinity, mean no deadline *)
      List.iter
        (fun span ->
          let tk =
            Wool.Submit.submit
              ~deadline:(Wool.Submit.deadline_in span)
              pool
              (fun _ctx -> 42)
          in
          Alcotest.(check int)
            (Printf.sprintf "result, deadline in %g s" span)
            42 (Wool.Submit.await tk))
        [ 60.; 1e12; infinity ];
      Alcotest.(check int) "expired" 0
        (Wool.ingress_stats pool).Wool.expired;
      Alcotest.check_raises "NaN span"
        (Invalid_argument "Wool.Submit: the span is NaN") (fun () ->
          ignore (Wool.Submit.deadline_in nan : int)))

(* -- timed awaits -- *)

let test_await_for_timeout () =
  let pool = Test_util.create ~workers:1 () in
  let tk = Wool.Submit.submit pool (fun _ctx -> 9) in
  Alcotest.(check (option int))
    "times out" None
    (Wool.Submit.await_for tk 0.02);
  Alcotest.(check (option int))
    "past deadline" None
    (Wool.Submit.await_until tk ~deadline:(Wool_util.Clock.now_ns () - 1));
  Wool.shutdown pool;
  (* once resolved, the timed await reports the outcome, not a timeout *)
  match Wool.Submit.await_for tk 1.0 with
  | exception Wool.Submission_rejected -> ()
  | _ -> Alcotest.fail "shutdown-drained ticket must reject via await_for"

let test_await_for_resolves () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      (* the job outlasts a zero-length wait, so a timeout that fires at
         once shows as [None] *)
      List.iter
        (fun span ->
          let tk =
            Wool.Submit.submit pool (fun _ctx ->
                Unix.sleepf 0.02;
                11)
          in
          Alcotest.(check (option int))
            (Printf.sprintf "resolves within %g s" span)
            (Some 11)
            (Wool.Submit.await_for tk span))
        [ 5.0; 1e12; infinity ];
      Alcotest.check_raises "NaN timeout"
        (Invalid_argument "Wool.Submit: the span is NaN") (fun () ->
          let tk = Wool.Submit.submit pool (fun _ctx -> 0) in
          ignore (Wool.Submit.await_for tk nan : int option)))

(* -- cancellation -- *)

let test_cancel_before_start_all_modes () =
  List.iter
    (fun (name, mode) ->
      let pool = Test_util.create ~workers:1 ~mode () in
      let ran = Atomic.make 0 in
      let c = Wool.Cancel.create () in
      Wool.Cancel.cancel c;
      let tk =
        Wool.Submit.submit ~cancel:c pool (fun _ctx ->
            Atomic.incr ran)
      in
      ignore (Wool.run pool (fun _ctx -> 0));
      (match Wool.Submit.poll tk with
      | `Cancelled -> ()
      | _ -> Alcotest.failf "%s: pre-cancelled job must poll Cancelled" name);
      (match Wool.Submit.await tk with
      | exception Wool.Cancel.Cancelled -> ()
      | _ -> Alcotest.failf "%s: await must raise Cancelled" name);
      Alcotest.(check int) (name ^ ": body never ran") 0 (Atomic.get ran);
      Alcotest.(check int)
        (name ^ ": cancelled")
        1
        (Wool.ingress_stats pool).Wool.cancelled;
      Alcotest.(check (list string))
        (name ^ ": invariants")
        [] (Wool.Invariants.check pool);
      Wool.shutdown pool)
    Test_util.all_modes

let test_cancel_mid_run () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let started = Atomic.make (-1) in
      let c = Wool.Cancel.create () in
      let tk =
        Wool.Submit.submit ~cancel:c pool (fun ctx ->
            Atomic.set started 1;
            let tok = Option.get (Wool.cancel_token ctx) in
            while not (Wool.Cancel.is_set tok) do
              Domain.cpu_relax ();
              Unix.sleepf 0.0002
            done;
            Wool.Cancel.check tok;
            Alcotest.fail "check on a set token must raise")
      in
      Test_util.await_flag started;
      Wool.Cancel.cancel c;
      (match Wool.Submit.await tk with
      | exception Wool.Cancel.Cancelled -> ()
      | _ -> Alcotest.fail "mid-run cancel must resolve Cancelled");
      let ig = Wool.ingress_stats pool in
      (* settlement-based: a job cancelled mid-run is not "executed" *)
      Alcotest.(check int) "executed" 0 ig.Wool.executed;
      Alcotest.(check int) "cancelled" 1 ig.Wool.cancelled)

let test_spawn_boundary_cancel () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let c = Wool.Cancel.create () in
      let tk =
        Wool.Submit.submit ~cancel:c pool (fun ctx ->
            (* the job cancels its own token: the next spawn must refuse
               to fan the task tree out any further *)
            Wool.Cancel.cancel c;
            let f = Wool.spawn ctx (fun _ctx -> 1) in
            Wool.join ctx f)
      in
      (match Wool.Submit.await tk with
      | exception Wool.Cancel.Cancelled -> ()
      | _ -> Alcotest.fail "spawn under a set token must settle Cancelled");
      Alcotest.(check int) "cancelled" 1
        (Wool.ingress_stats pool).Wool.cancelled)

(* -- submit_retry -- *)

let test_submit_retry_contract () =
  let pool = Test_util.create ~workers:1 () in
  (match Wool.Submit.submit_retry ~attempts:0 pool (fun _ctx -> 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempts:0 must raise Invalid_argument");
  Wool.shutdown pool

let test_submit_retry_exhausts () =
  (* the lane rounds its capacity up to a power of two (minimum 2), so
     two fillers fill a 2-slot lane exactly; [Reject] admission because
     the retry loop only acts on admission-time rejections (the default
     [Block] would park the producer instead) *)
  let pool =
    Test_util.create ~workers:1 ~injection_capacity:2
      ~admission:Wool.Reject ()
  in
  let filler = Wool.Submit.submit pool (fun _ctx -> 3) in
  let _filler2 = Wool.Submit.submit pool (fun _ctx -> 33) in
  (* lane full, nobody draining: every attempt rejects, and the backoff
     between attempts (100us, then 200us) is observable wall time *)
  let t0 = Wool_util.Clock.now_ns () in
  let tk =
    Wool.Submit.submit_retry ~attempts:3 ~backoff_ns:100_000 ~seed:7 pool
      (fun _ctx -> 4)
  in
  let elapsed = Wool_util.Clock.now_ns () - t0 in
  (match Wool.Submit.poll tk with
  | `Rejected -> ()
  | _ -> Alcotest.fail "retries on a full lane must end rejected");
  Alcotest.(check bool) "backed off between attempts" true
    (elapsed >= 300_000);
  let ig = Wool.ingress_stats pool in
  Alcotest.(check int) "three rejections" 3 ig.Wool.rejected;
  (* [run] first helps drain the queued jobs, running the filler, so
     the earlier admission still completes *)
  ignore (Wool.run pool (fun _ctx -> 0));
  Alcotest.(check int) "queued job ran" 3 (Wool.Submit.await filler);
  Wool.shutdown pool

let test_submit_retry_first_try () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let tk = Wool.Submit.submit_retry ~attempts:1 pool (fun _ctx -> 8) in
      Alcotest.(check int) "admitted and ran" 8 (Wool.Submit.await tk))

(* -- shutdown races -- *)

let test_awaiters_race_shutdown_all_modes () =
  List.iter
    (fun (name, mode) ->
      let pool = Test_util.create ~workers:1 ~mode () in
      let tickets =
        List.init 8 (fun i ->
            Wool.Submit.submit pool (fun _ctx -> i))
      in
      let rejected = Atomic.make 0 in
      let awaiters =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                List.iteri
                  (fun i tk ->
                    if i mod 4 = d then
                      match Wool.Submit.await tk with
                      | _ -> ()
                      | exception Wool.Submission_rejected ->
                          Atomic.incr rejected)
                  tickets))
      in
      Unix.sleepf 0.005;
      Wool.shutdown pool;
      List.iter Domain.join awaiters;
      Alcotest.(check int) (name ^ ": every awaiter resolved rejected") 8
        (Atomic.get rejected))
    Test_util.all_modes

(* -- adaptive admission -- *)

let test_adaptive_sheds_under_load () =
  Test_util.with_pool ~workers:1 ~server:true ~admission:Wool.Adaptive
    ~admission_target_ns:1 (fun pool ->
      (* a 1ns target trips the controller on the first measured wait.
         The EWMA only moves when the worker dequeues, so pace the
         bursts: each sleep hands the (possibly single-core) box to the
         worker, which pops one slow job and records its wait; the next
         burst then lands in front of a non-empty lane and must shed. *)
      let body _ctx =
        let s = ref 0 in
        for j = 1 to 200_000 do
          s := !s + j
        done;
        !s
      in
      let tks = ref [] in
      for i = 0 to 63 do
        if i mod 8 = 0 then Unix.sleepf 0.002;
        tks := Wool.Submit.submit pool body :: !tks
      done;
      let shed =
        List.fold_left
          (fun n tk ->
            match Wool.Submit.await tk with
            | _ -> n
            | exception Wool.Submission_rejected -> n + 1)
          0 !tks
      in
      let ig = Wool.ingress_stats pool in
      Alcotest.(check bool) "controller shed something" true (shed > 0);
      Alcotest.(check int) "ledger agrees" shed ig.Wool.rejected;
      Alcotest.(check bool)
        "some work still ran" true
        (ig.Wool.executed > 0);
      Alcotest.(check (list string)) "invariants" []
        (Wool.Invariants.check pool))

(* -- the ingress body itself: [Wool_deque.Ingress] driven by hand,
   on a clock the test sets, so the Adaptive controller and the
   dequeue-time decision are deterministic -- *)

module Ig = Wool_deque.Ingress

let clock = ref 0

let ingress ~admission =
  Ig.create ~capacity:4 ~admission ~target_ns:1
    ~note:(fun _ -> ())
    ~fault:(fun () _ -> ())
    ~now:(fun () -> !clock)

let job ?(deadline = max_int) ?token t =
  let tk = Ig.ticket t in
  (tk, Ig.J { fn = (fun () -> ()); tk; deadline; token; enq_ns = 0 })

let pop (t : unit Ig.t) =
  Option.get (Wool_deque.Inject_queue.try_pop t.lane)
let ledger (t : unit Ig.t) =
  List.map Atomic.get
    [
      t.submitted; t.admitted; t.rejected; t.shed; t.completed; t.expired;
      t.cancelled;
    ]

(* An expired pop still feeds the EWMA, and with a 1 ns target that one
   sample sheds the next submission while a backlog is queued. *)
let test_expired_pop_feeds_ewma () =
  clock := 100;
  let t = ingress ~admission:Adaptive in
  let admit = Ig.admit t ~admission:Adaptive in
  let tk0, j0 = job ~deadline:50 t and _, j1 = job t and tk2, j2 = job t in
  Alcotest.(check bool) "job 0 admitted" true (admit j0);
  Alcotest.(check bool) "job 1 admitted" true (admit j1);
  Alcotest.(check bool) "expired job not run" false (Ig.must_run t () (pop t));
  Alcotest.(check bool) "settled expired" true (Ig.peek tk0 = Ig.Expired);
  Alcotest.(check int)
    "EWMA fed by the expired pop" 25 (Atomic.get t.wait_ewma);
  Alcotest.(check bool) "refused at the door" false (admit j2);
  Alcotest.(check bool) "ticket rejected" true (Ig.peek tk2 = Ig.Rejected);
  Alcotest.(check int) "rejected" 1 (Atomic.get t.rejected)

(* The token is read before the deadline: a cancelled job past its
   deadline settles cancelled. *)
let test_cancel_before_expiry () =
  clock := 100;
  let t = ingress ~admission:Reject in
  let tk, j = job ~deadline:50 ~token:(Atomic.make true) t in
  Alcotest.(check bool) "admitted" true
    (Ig.admit t ~admission:Reject j);
  Alcotest.(check bool) "not run" false (Ig.must_run t () (pop t));
  Alcotest.(check bool) "settled cancelled" true (Ig.peek tk = Ig.Cancelled);
  Alcotest.(check (pair int int)) "cancelled, not expired" (1, 0)
    (Atomic.get t.cancelled, Atomic.get t.expired)

(* [reset] zeroes every ledger counter and the EWMA; [inflight], a
   balance, keeps counting the job still queued. *)
let test_reset () =
  clock := 100;
  let t = ingress ~admission:Adaptive in
  let admit j = ignore (Ig.admit t ~admission:Adaptive j : bool) in
  let _, j0 = job ~deadline:50 t and _, j1 = job t and _, j2 = job t in
  admit j0;
  admit j1;
  ignore (Ig.must_run t () (pop t) : bool);
  admit j2;
  Alcotest.(check (list int))
    "ledger before" [ 3; 2; 1; 0; 0; 1; 0 ] (ledger t);
  Ig.reset t;
  Alcotest.(check (list int))
    "ledger after" [ 0; 0; 0; 0; 0; 0; 0 ] (ledger t);
  Alcotest.(check int) "EWMA after" 0 (Atomic.get t.wait_ewma);
  Alcotest.(check int) "inflight kept" 1 (Atomic.get t.cells.inflight)

(* Rounding a capacity above 2^61 up to a power of two has no [int]
   answer: the lane raises instead of doubling its counter into 0. *)
let test_lane_capacity_too_large () =
  Alcotest.check_raises "max_int"
    (Invalid_argument "Inject_queue.create: capacity too large") (fun () ->
      ignore
        (Wool_deque.Inject_queue.create ~capacity:max_int ~dummy:() ()
          : unit Wool_deque.Inject_queue.t))

let suite =
  [
    ( "lifecycle",
      [
        Alcotest.test_case "expired job dropped at dequeue" `Quick
          test_expired_drop;
        Alcotest.test_case "future deadline runs" `Quick
          test_future_deadline_runs;
        Alcotest.test_case "await_for times out" `Quick
          test_await_for_timeout;
        Alcotest.test_case "await_for resolves" `Quick
          test_await_for_resolves;
        Alcotest.test_case "cancel before start (all modes)" `Quick
          test_cancel_before_start_all_modes;
        Alcotest.test_case "cancel mid-run" `Quick test_cancel_mid_run;
        Alcotest.test_case "spawn boundary cancel" `Quick
          test_spawn_boundary_cancel;
        Alcotest.test_case "submit_retry contract" `Quick
          test_submit_retry_contract;
        Alcotest.test_case "submit_retry exhausts attempts" `Quick
          test_submit_retry_exhausts;
        Alcotest.test_case "submit_retry first-try admit" `Quick
          test_submit_retry_first_try;
        Alcotest.test_case "awaiters race shutdown (all modes)" `Quick
          test_awaiters_race_shutdown_all_modes;
        Alcotest.test_case "adaptive admission sheds under load" `Quick
          test_adaptive_sheds_under_load;
        Alcotest.test_case "expired pop feeds the EWMA" `Quick
          test_expired_pop_feeds_ewma;
        Alcotest.test_case "cancel check before expiry" `Quick
          test_cancel_before_expiry;
        Alcotest.test_case "ingress reset" `Quick test_reset;
        Alcotest.test_case "lane capacity too large" `Quick
          test_lane_capacity_too_large;
      ] );
  ]
