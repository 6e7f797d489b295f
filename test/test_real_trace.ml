(* End-to-end tracing of the real multi-domain runtime: ring invariants
   on a 4-worker fib run, overflow accounting, and the
   tracing-disabled-by-default contract. *)

module Ev = Wool_trace.Event
module F = Wool_workloads.Fib

let traced_pool ?(workers = 4) ?trace_capacity () =
  Wool.create
    ~config:(Wool.Config.make ~workers ~trace:true ?trace_capacity ())
    ()

let count_tag events tag =
  Array.fold_left (fun acc e -> if e.Ev.tag = tag then acc + 1 else acc) 0 events

let test_traced_fib_invariants () =
  let n = 20 in
  let pool = traced_pool () in
  let result = Wool.run pool (fun ctx -> F.wool ctx n) in
  Wool.shutdown pool;
  Alcotest.(check int) "fib correct" (F.serial n) result;
  Alcotest.(check bool) "trace enabled" true (Wool.trace_enabled pool);
  let per = Wool.trace_per_worker pool in
  Alcotest.(check int) "one ring per worker" 4 (Array.length per);
  (* per-worker timestamps are monotone non-decreasing *)
  Array.iteri
    (fun w evs ->
      for i = 1 to Array.length evs - 1 do
        if evs.(i - 1).Ev.ts > evs.(i).Ev.ts then
          Alcotest.failf "worker %d: ts regressed at event %d" w i
      done;
      Array.iter
        (fun e ->
          Alcotest.(check int) "worker id stamped" w e.Ev.worker;
          Alcotest.(check bool) "tag in range" true
            (Ev.tag_to_int e.Ev.tag < Ev.n_tags))
        evs)
    per;
  (* every successful steal from victim v is matched by a Join_stolen in
     v's own ring: the victim is the spawner of the migrated task and
     joins it exactly once (Private mode, leapfrog steals included) *)
  Array.iteri
    (fun v _ ->
      let stolen_from_v =
        Array.fold_left
          (fun acc evs ->
            acc
            + Array.fold_left
                (fun acc e ->
                  if e.Ev.tag = Ev.Steal_ok && e.Ev.b = v then acc + 1
                  else acc)
                0 evs)
          0 per
      in
      let joins_in_v = count_tag per.(v) Ev.Join_stolen in
      Alcotest.(check int)
        (Printf.sprintf "victim %d: Steal_ok matched by Join_stolen" v)
        stolen_from_v joins_in_v)
    per;
  (* merged stream is globally time-sorted and complete (it now also
     carries the producer-side ingress ring) *)
  let events = Wool.trace_events pool in
  let total =
    Array.fold_left (fun a evs -> a + Array.length evs) 0 per
    + Array.length (Wool.trace_ingress pool)
  in
  Alcotest.(check int) "merged = sum of rings" total (Array.length events);
  for i = 1 to Array.length events - 1 do
    if events.(i - 1).Ev.ts > events.(i).Ev.ts then
      Alcotest.failf "merged stream unsorted at %d" i
  done;
  (* events agree with the stats counters (nothing dropped: rings are
     65536 deep and fib 20 spawns ~10k tasks per worker at most) *)
  Alcotest.(check int) "nothing dropped" 0 (Wool.trace_dropped pool);
  let n = Wool.Stats.count (Wool.Stats.aggregate pool) in
  Alcotest.(check int) "spawn events = spawn counter" (n Spawn)
    (count_tag events Ev.Spawn);
  Alcotest.(check int) "steal events = steal counter" (n Steal_ok)
    (count_tag events Ev.Steal_ok);
  Alcotest.(check int) "join events = joins_stolen counter" (n Join_stolen)
    (count_tag events Ev.Join_stolen)

(* Regression: a leap steal whose stolen task joins a stolen child of its
   own leapfrogs again, nested; the nested leap steal counts itself, so
   the outer one must add exactly one. Each task [k < 4] spawns task
   [k + 1] and spins until the other worker has started it, which forces
   the ping-pong: worker 1 steals task 1 idle, worker 0 leap-steals
   task 2 while joining task 1, worker 1 leap-steals task 3 while
   joining task 2, and worker 0 leap-steals task 4 inside task 2's join
   of task 3 — nested in its first leapfrog. A task running inside a
   leapfrog spawns above the slot of the stolen join it is nested in, at
   [bot], where the other worker looks. *)
let test_nested_leap_steals_counted_once () =
  let pool =
    Wool.create
      ~config:
        (Wool.Config.make ~workers:2 ~mode:Wool.Private
           ~publicity:Wool.All_public ~trace:true ())
      ()
  in
  let started = Array.init 5 (fun _ -> Atomic.make false) in
  let rec task k ctx =
    Atomic.set started.(k) true;
    if k = 4 then 1
    else begin
      let child = Wool.spawn ctx (task (k + 1)) in
      while not (Atomic.get started.(k + 1)) do
        Domain.cpu_relax ()
      done;
      1 + Wool.join ctx child
    end
  in
  let result = Wool.run pool (task 0) in
  Wool.shutdown pool;
  Alcotest.(check int) "every task ran" 5 result;
  let n = Wool.Stats.count (Wool.Stats.aggregate pool) in
  Alcotest.(check int) "steals" 4 (n Steal_ok);
  Alcotest.(check int) "leap steal events" 3
    (count_tag (Wool.trace_events pool) Ev.Leap_steal);
  Alcotest.(check int) "leap steal counter" 3 (n Leap_steal)

let test_overflow_drops_oldest () =
  let cap = 64 in
  let pool = traced_pool ~workers:1 ~trace_capacity:cap () in
  let result = Wool.run pool (fun ctx -> F.wool ctx 15) in
  Wool.shutdown pool;
  Alcotest.(check int) "fib correct" (F.serial 15) result;
  let dropped = Wool.trace_dropped pool in
  Alcotest.(check bool) "ring overflowed" true (dropped > 0);
  let evs = (Wool.trace_per_worker pool).(0) in
  Alcotest.(check int) "ring keeps capacity" cap (Array.length evs);
  (* oldest events went first: the survivors are the newest [cap] writes,
     so together with the drop count they account for every record *)
  let agg = Wool.Stats.aggregate pool in
  let recorded =
    (* every event a worker records, it counts *)
    Array.fold_left (fun n tag -> n + Wool.Stats.count agg tag) 0 Ev.all_tags
  in
  Alcotest.(check int) "dropped + kept = recorded" recorded (dropped + cap);
  for i = 1 to cap - 1 do
    if evs.(i - 1).Ev.ts > evs.(i).Ev.ts then
      Alcotest.failf "overflowed ring unsorted at %d" i
  done

let test_disabled_tracing_is_silent () =
  let pool = Wool.create ~config:(Wool.Config.make ~workers:2 ()) () in
  let result = Wool.run pool (fun ctx -> F.wool ctx 18) in
  Wool.shutdown pool;
  Alcotest.(check int) "fib correct" (F.serial 18) result;
  Alcotest.(check bool) "disabled by default" false (Wool.trace_enabled pool);
  Alcotest.(check int) "no events" 0 (Array.length (Wool.trace_events pool));
  Alcotest.(check int) "no drops" 0 (Wool.trace_dropped pool);
  (* stats keep working exactly as before tracing existed *)
  let n = Wool.Stats.count (Wool.Stats.aggregate pool) in
  Alcotest.(check bool) "spawns counted" true (n Spawn > 0);
  Alcotest.(check int) "all spawns accounted" (n Spawn)
    (n Inline_private + n Inline_public + n Join_stolen)

let test_with_pool_forwards_trace () =
  let saw =
    Test_util.with_pool ~workers:2 ~trace:true (fun pool ->
        ignore (Wool.run pool (fun ctx -> F.wool ctx 12));
        (Wool.trace_enabled pool, Array.length (Wool.trace_events pool)))
  in
  Alcotest.(check bool) "trace forwarded" true (fst saw);
  Alcotest.(check bool) "events flowing" true (snd saw > 0);
  let via_config =
    Wool.with_pool
      ~config:(Wool.Config.make ~workers:2 ~trace:true ())
      (fun pool -> Wool.trace_enabled pool)
  in
  Alcotest.(check bool) "config forwarded" true via_config

let test_trace_clear () =
  let pool = traced_pool ~workers:1 () in
  ignore (Wool.run pool (fun ctx -> F.wool ctx 10));
  Wool.shutdown pool;
  Alcotest.(check bool) "events present" true
    (Array.length (Wool.trace_events pool) > 0);
  Wool.trace_clear pool;
  Alcotest.(check int) "cleared" 0 (Array.length (Wool.trace_events pool));
  Alcotest.(check int) "drop count cleared" 0 (Wool.trace_dropped pool)

(* A body that raises with spawns outstanding has them joined by the
   unwinder, which must count and trace those joins like [join] does:
   every tag's events equal its counter, and the stream implies the
   whole stats table. *)
let test_raising_body_events_match_counters () =
  let pool = traced_pool ~workers:1 () in
  (match
     Wool.run pool (fun ctx ->
         ignore (Wool.spawn ctx (fun _ -> 1) : int Wool.future);
         ignore (Wool.spawn ctx (fun _ -> 2) : int Wool.future);
         failwith "body")
   with
  | () -> Alcotest.fail "the body's exception was lost"
  | exception Failure _ -> ());
  Wool.shutdown pool;
  Alcotest.(check (list string)) "quiescent" [] (Wool.Invariants.check pool);
  let events = (Wool.trace_per_worker pool).(0) in
  let agg = Wool.Stats.aggregate pool in
  Alcotest.(check int) "both unwound joins inlined" 2
    (Wool.Stats.count agg Inline_public);
  Array.iter
    (fun tag ->
      Alcotest.(check int)
        (Ev.tag_name tag ^ " events = counter")
        (Wool.Stats.count agg tag) (count_tag events tag))
    Ev.all_tags;
  let implied = Wool.Stats.of_events events in
  List.iter
    (fun (name, key) ->
      Alcotest.(check int)
        (name ^ " implied by the stream")
        (Wool.Stats.get agg key)
        (Wool.Stats.get implied key))
    Wool.Stats.keys

let suite =
  [
    ( "real-trace",
      [
        Alcotest.test_case "4-worker fib invariants" `Quick
          test_traced_fib_invariants;
        Alcotest.test_case "nested leap steals counted once" `Quick
          test_nested_leap_steals_counted_once;
        Alcotest.test_case "overflow drops oldest" `Quick
          test_overflow_drops_oldest;
        Alcotest.test_case "disabled tracing is silent" `Quick
          test_disabled_tracing_is_silent;
        Alcotest.test_case "with_pool forwards trace" `Quick
          test_with_pool_forwards_trace;
        Alcotest.test_case "trace_clear" `Quick test_trace_clear;
        Alcotest.test_case "raising body: events match counters" `Quick
          test_raising_body_events_match_counters;
      ] );
  ]
