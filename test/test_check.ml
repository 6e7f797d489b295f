(* The model checker itself: engine semantics (does it find real races,
   does the park/wake reduction terminate, is replay deterministic), the
   protocol scenarios, and the trace oracle. *)

module Sched = Wool_check.Sched
module Sa = Wool_check.Shadow_atomic
module Scenarios = Wool_check.Scenarios
module Oracle = Wool_check.Oracle
module E = Wool_trace.Event

(* ---- engine ---- *)

let test_finds_lost_update () =
  (* two threads doing a non-atomic read-modify-write: the checker must
     find the interleaving where one increment is lost *)
  let racy () =
    Sched.run (fun () ->
        let c = Sa.make 0 in
        let incr () = Sa.set c (Sa.get c + 1) in
        Sched.spawn incr;
        Sched.spawn incr;
        Sched.final (fun () ->
            if Sa.get c <> 2 then failwith "lost update"))
  in
  match racy () with
  | _ -> Alcotest.fail "lost update not found"
  | exception Sched.Violation (msg, sched) ->
      Alcotest.(check bool) "names the bug" true (msg = "Failure(\"lost update\")");
      Alcotest.(check bool) "schedule rendered" true (String.length sched > 0)

let test_cas_loop_is_safe () =
  (* the same counter with a CAS retry loop: every schedule passes, and
     exploration visited more than one interleaving *)
  let stats =
    Sched.run (fun () ->
        let c = Sa.make 0 in
        let incr () =
          let rec go () =
            let v = Sa.get c in
            if not (Sa.compare_and_set c v (v + 1)) then go ()
          in
          go ()
        in
        Sched.spawn incr;
        Sched.spawn incr;
        Sched.final (fun () ->
            if Sa.get c <> 2 then failwith "lost update"))
  in
  Alcotest.(check bool) "explored several schedules" true
    (stats.Sched.schedules > 1)

let test_park_wake_terminates () =
  (* a spinner waiting on a flag another thread sets: cpu_relax parks,
     the write wakes, exploration is finite and clean *)
  let stats =
    Sched.run (fun () ->
        let flag = Sa.make false in
        Sched.spawn (fun () ->
            while not (Sa.get flag) do
              Sa.cpu_relax ()
            done);
        Sched.spawn (fun () -> Sa.set flag true))
  in
  Alcotest.(check bool) "finite" true (stats.Sched.schedules >= 1)

let test_deadlock_detected () =
  match
    Sched.run (fun () ->
        let flag = Sa.make false in
        Sched.spawn (fun () ->
            while not (Sa.get flag) do
              Sa.cpu_relax ()
            done))
  with
  | _ -> Alcotest.fail "spinning on a flag nobody sets must deadlock"
  | exception Sched.Deadlock _ -> ()

let test_schedule_limit () =
  match
    Sched.run ~max_schedules:2 (fun () ->
        let c = Sa.make 0 in
        let w () = Sa.set c 1 in
        Sched.spawn w;
        Sched.spawn w;
        Sched.spawn w)
  with
  | _ -> Alcotest.fail "3 threads x 1 op exceed 2 schedules"
  | exception Sched.Schedule_limit n -> Alcotest.(check int) "cap" 2 n

let test_replay_deterministic () =
  let scenario () =
    Sched.run (fun () ->
        let a = Sa.make 0 and b = Sa.make 0 in
        Sched.spawn (fun () ->
            Sa.set a 1;
            ignore (Sa.get b : int));
        Sched.spawn (fun () ->
            Sa.set b 1;
            ignore (Sa.get a : int)))
  in
  let s1 = scenario () and s2 = scenario () in
  Alcotest.(check int) "same exploration size" s1.Sched.schedules
    s2.Sched.schedules;
  (* 2 threads x 2 ops: C(4,2) = 6 interleavings *)
  Alcotest.(check int) "exact count" 6 s1.Sched.schedules

(* ---- scenarios ---- *)

(* The exact number of schedules each scenario explores. Exploration is
   deterministic, so a changed count means a changed protocol body or
   scenario: update the table with the change, and say why. The four
   scenarios whose producers admit into the lane moved when [admit]
   gained its read of the parked-worker count (submit-vs-shutdown
   19,977, submit-vs-drain 13,316, submit-vs-submit 1,110, shed-vs-drain
   52,365 before it). submit-vs-park's worker polls once before it
   parks since the idle poll came in (87,108 before it). publish-window
   was 4,707 before the private fast pop: its owner's join of the
   private slot now reads the publish request once on the fast path and,
   finding it set, once more in the slow path's publish service, a
   scheduling point the single read of the old [pop] did not have. The
   six scenarios whose threads settle a ticket moved when [settle]
   gained its read of the pool's registered awaiters, after its publish
   (submit-vs-shutdown 32,787, submit-vs-drain 31,532, shed-vs-drain
   81,075, cancel-vs-complete 84, expire-vs-dequeue 10,
   cancel-vs-shutdown 1,705 before it); the scenarios that settle only
   in their final block did not move. *)
let schedules =
  [
    ("single-task-lifecycle", 248);
    ("stack-vs-one-thief", 2_739);
    ("two-thieves-one-task", 482);
    ("recycled-descriptor-backoff", 3_232);
    ("trip-wire-steal-vs-privatize", 28_954);
    ("publish-window", 4_708);
    ("leapfrog-hold", 1_420);
    ("steal-vs-grow", 206);
    ("chase-lev-last-task", 125);
    ("submit-vs-shutdown", 49_713);
    ("submit-vs-drain", 81_765);
    ("submit-vs-submit", 2_630);
    ("shed-vs-drain", 121_485);
    ("block-vs-drain", 23_940);
    ("submit-vs-park", 245_497);
    ("await-vs-settle", 3_692);
    ("lone-await-vs-settle", 1_974);
    ("cancel-vs-complete", 168);
    ("expire-vs-dequeue", 15);
    ("cancel-vs-shutdown", 2_653);
  ]

(* Both directions: a scenario without a pin, and a pin whose scenario
   is gone, are both stale tables. *)
let test_pins_match_scenarios () =
  Alcotest.(check (list string))
    "pinned names = Scenarios.all" (List.map fst schedules)
    (List.map (fun (s : Scenarios.t) -> s.Scenarios.name) Scenarios.all)

let scenario_case (s : Scenarios.t) =
  let name = s.Scenarios.name in
  Alcotest.test_case name `Slow (fun () ->
      match (Scenarios.run_one s, List.assoc_opt name schedules) with
      | Scenarios.Pass st, Some n ->
          Alcotest.(check int) (name ^ " schedules") n st.Sched.schedules
      | Scenarios.Pass _, None -> Alcotest.failf "%s: no pinned count" name
      | Scenarios.Fail msg, _ -> Alcotest.failf "%s: %s" name msg)

(* ---- oracle ---- *)

let ev ?(ts = 0) ?(a = -1) ?(b = -1) worker tag = { E.ts; worker; tag; a; b }

let test_oracle_clean_history () =
  (* worker 0 spawns twice at index 0 (recycled), worker 1 steals both *)
  let per_worker =
    [|
      [|
        ev 0 E.Spawn ~a:0;
        ev 0 E.Join_stolen ~a:0 ~b:1;
        ev 0 E.Spawn ~a:0;
        ev 0 E.Join_stolen ~a:0 ~b:1;
      |];
      [|
        ev 1 E.Steal_attempt ~b:0;
        ev 1 E.Steal_ok ~a:0 ~b:0;
        ev 1 E.Steal_attempt ~b:0;
        ev 1 E.Steal_ok ~a:0 ~b:0;
      |];
    |]
  in
  let c = [ (E.Spawn, 2); (E.Steal_ok, 2); (E.Join_stolen, 2) ] in
  Alcotest.(check (list string))
    "clean" []
    (Oracle.check_events ~counts:c ~dropped:0 per_worker)

let test_oracle_counter_mismatch () =
  let per_worker = [| [| ev 0 E.Spawn ~a:0 |] |] in
  let c = [ (E.Spawn, 2) ] in
  match Oracle.check_events ~counts:c ~dropped:0 per_worker with
  | [] -> Alcotest.fail "spawn undercount not flagged"
  | v :: _ ->
      Alcotest.(check bool) "names spawns" true (Test_util.contains v "spawn")

let test_oracle_phantom_steal () =
  (* a steal of a descriptor its victim never spawned *)
  let per_worker =
    [|
      [| ev 0 E.Spawn ~a:1 |];
      [| ev 1 E.Steal_attempt ~b:0; ev 1 E.Steal_ok ~a:0 ~b:0 |];
    |]
  in
  let c = [ (E.Spawn, 1); (E.Steal_ok, 1) ] in
  match Oracle.check_events ~counts:c ~dropped:0 per_worker with
  | [] -> Alcotest.fail "phantom steal not flagged"
  | v :: _ ->
      Alcotest.(check bool) "causality message" true
        (Test_util.contains v "causality")

let test_oracle_phantom_thief () =
  (* owner blames thief 1 for a steal thief 1 never committed *)
  let per_worker =
    [|
      [| ev 0 E.Spawn ~a:0; ev 0 E.Join_stolen ~a:0 ~b:1 |];
      [| ev 1 E.Steal_attempt ~b:0 |];
    |]
  in
  let c = [ (E.Spawn, 1); (E.Join_stolen, 1) ] in
  match Oracle.check_events ~counts:c ~dropped:0 per_worker with
  | [] -> Alcotest.fail "phantom thief not flagged"
  | v :: _ ->
      Alcotest.(check bool) "causality message" true
        (Test_util.contains v "causality")

let test_oracle_dropped_skips () =
  let per_worker = [| [| ev 0 E.Spawn ~a:0 |] |] in
  let c = [ (E.Spawn, 99) ] in
  Alcotest.(check (list string))
    "incomplete stream unchecked" []
    (Oracle.check_events ~counts:c ~dropped:1 per_worker)

let test_oracle_queued_clean () =
  (* a queued pool's history: spawns and steals carry the slot index,
     the stolen join names no thief *)
  let per_worker =
    [|
      [| ev 0 E.Spawn ~a:0; ev 0 E.Join_stolen ~a:0 |];
      [| ev 1 E.Steal_attempt ~b:0; ev 1 E.Steal_ok ~a:0 ~b:0 |];
    |]
  in
  let c = [ (E.Spawn, 1); (E.Steal_ok, 1); (E.Join_stolen, 1) ] in
  Alcotest.(check (list string))
    "clean" []
    (Oracle.check_events ~counts:c ~dropped:0 per_worker)

let test_oracle_queued_phantom_steal () =
  (* a queued steal of a slot its victim never pushed *)
  let per_worker =
    [|
      [| ev 0 E.Spawn ~a:0; ev 0 E.Join_stolen ~a:0 |];
      [| ev 1 E.Steal_attempt ~b:0; ev 1 E.Steal_ok ~a:1 ~b:0 |];
    |]
  in
  let c = [ (E.Spawn, 1); (E.Steal_ok, 1); (E.Join_stolen, 1) ] in
  match Oracle.check_events ~counts:c ~dropped:0 per_worker with
  | [] -> Alcotest.fail "queued phantom steal not flagged"
  | v :: _ ->
      Alcotest.(check bool) "causality message" true
        (Test_util.contains v "causality")

let suite =
  [
    ( "check-engine",
      [
        Alcotest.test_case "finds lost update" `Quick test_finds_lost_update;
        Alcotest.test_case "cas loop safe" `Quick test_cas_loop_is_safe;
        Alcotest.test_case "park/wake terminates" `Quick
          test_park_wake_terminates;
        Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
        Alcotest.test_case "schedule limit" `Quick test_schedule_limit;
        Alcotest.test_case "replay deterministic" `Quick
          test_replay_deterministic;
      ] );
    ( "check-scenarios",
      Alcotest.test_case "pins match scenarios" `Quick
        test_pins_match_scenarios
      :: List.map scenario_case Scenarios.all );
    ( "check-oracle",
      [
        Alcotest.test_case "clean history" `Quick test_oracle_clean_history;
        Alcotest.test_case "counter mismatch" `Quick
          test_oracle_counter_mismatch;
        Alcotest.test_case "phantom steal" `Quick test_oracle_phantom_steal;
        Alcotest.test_case "phantom thief" `Quick test_oracle_phantom_thief;
        Alcotest.test_case "dropped events skip" `Quick
          test_oracle_dropped_skips;
        Alcotest.test_case "queued history clean" `Quick
          test_oracle_queued_clean;
        Alcotest.test_case "queued phantom steal" `Quick
          test_oracle_queued_phantom_steal;
      ] );
  ]
