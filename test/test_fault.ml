(* Fault injection, exception robustness, and the stall watchdog. *)

module F = Wool_fault
module Json = Wool_trace.Json

let all_modes = Test_util.all_modes
let fib = Test_util.fib
let fib_serial = Test_util.fib_serial

(* ---- plans and injectors ---- *)

let test_plan_deterministic () =
  for seed = 0 to 9 do
    let a = F.Plan.random ~seed () in
    let b = F.Plan.random ~seed () in
    Alcotest.(check bool) "equal plans" true (a = b)
  done;
  let a = F.Plan.random ~seed:1 () in
  let b = F.Plan.random ~seed:2 () in
  Alcotest.(check bool) "different seeds differ" false (a.F.Plan.rules = b.F.Plan.rules)

let test_injector_deterministic () =
  let plan = F.Plan.random ~seed:42 () in
  let sites = F.Site.all @ F.Site.all @ F.Site.all in
  let stream worker =
    let inj = F.Injector.make plan ~worker in
    List.concat_map
      (fun _ -> List.map (fun s -> F.Injector.fire inj s) sites)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "same worker, same stream" true (stream 0 = stream 0);
  (* a second worker draws from an independent stream; over hundreds of
     coin flips they cannot coincide *)
  Alcotest.(check bool) "workers independent" false (stream 0 = stream 1)

let test_injector_counts () =
  let plan = F.Plan.random ~seed:7 () in
  let inj = F.Injector.make plan ~worker:0 in
  let fired = ref 0 in
  for _ = 1 to 200 do
    List.iter
      (fun s -> if F.Injector.fire inj s <> None then incr fired)
      F.Site.all
  done;
  Alcotest.(check int) "stats total = fires" !fired
    (F.Stats.total (F.Injector.stats inj));
  Alcotest.(check int) "fires counter" !fired (F.Injector.fires inj)

let test_plan_validation () =
  let bad site kind =
    try
      ignore
        (F.Plan.make ~seed:0
           [ { F.Plan.site; kind; rate = 0.5; max_fires = -1 } ]
          : F.Plan.t);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "raise_exn only at spawn" true
    (bad F.Site.Join F.Kind.Raise_exn);
  Alcotest.(check bool) "fail_steal not at publish" true
    (bad F.Site.Publish F.Kind.Fail_steal);
  Alcotest.(check bool) "fail_steal at pre-cas ok" false
    (bad F.Site.Pre_steal_cas F.Kind.Fail_steal);
  Alcotest.(check bool) "site names round-trip" true
    (List.for_all
       (fun s -> F.Site.of_name (F.Site.name s) = Some s)
       F.Site.all)

(* ---- faults perturb, never corrupt ---- *)

let test_fib_under_faults_all_modes () =
  List.iter
    (fun (name, mode) ->
      (* no exception rules: every run must produce the right answer *)
      let plan = F.Plan.random ~exceptions:false ~seed:11 () in
      let config = Wool.Config.make ~workers:4 ~mode ~faults:plan () in
      let pool = Wool.create ~config () in
      for _ = 1 to 3 do
        Alcotest.(check int) (name ^ " fib under faults") (fib_serial 16)
          (Wool.run pool (fun ctx -> fib ctx 16));
        Alcotest.(check (list string)) (name ^ " invariants") []
          (Wool.Invariants.check pool)
      done;
      Wool.shutdown pool)
    all_modes

let test_forced_steal_failures_counted () =
  (* a plan that aborts half of all steal attempts must still finish and
     must actually fire *)
  let plan =
    F.Plan.make ~name:"half-fail" ~seed:5
      [
        {
          F.Plan.site = F.Site.Pre_steal_cas;
          kind = F.Kind.Fail_steal;
          rate = 0.5;
          max_fires = -1;
        };
      ]
  in
  let config = Wool.Config.make ~workers:4 ~faults:plan () in
  let pool = Wool.create ~config () in
  (* On a time-sliced box a single run may see only a handful of steal
     attempts, each skipped with probability 1/2 — repeat until the plan
     fires (the fire counters accumulate across runs). *)
  let runs = ref 0 in
  while F.Stats.total (Wool.fault_stats pool) = 0 && !runs < 20 do
    incr runs;
    Alcotest.(check int) "result" (fib_serial 18)
      (Wool.run pool (fun ctx -> fib ctx 18))
  done;
  let stats = Wool.fault_stats pool in
  Alcotest.(check bool) "fired" true (F.Stats.total stats > 0);
  Alcotest.(check bool) "fired at pre-cas" true
    (F.Stats.count stats F.Site.Pre_steal_cas > 0);
  Alcotest.(check (list string)) "invariants" [] (Wool.Invariants.check pool);
  Wool.shutdown pool

let test_injected_exception_pool_survives () =
  List.iter
    (fun (name, mode) ->
      let plan =
        F.Plan.make ~name:"one-shot-exn" ~seed:9
          [
            {
              F.Plan.site = F.Site.Spawn;
              kind = F.Kind.Raise_exn;
              rate = 1.0;
              max_fires = 1;
            };
          ]
      in
      let workers = 2 in
      let config = Wool.Config.make ~workers ~mode ~faults:plan () in
      let pool = Wool.create ~config () in
      (* the very first spawn raises; each worker can fire at most once,
         so a bounded number of retries must reach a clean run *)
      let rec go attempts =
        if attempts > workers + 1 then
          Alcotest.fail (name ^ ": exception rule never exhausted")
        else
          match Wool.run pool (fun ctx -> fib ctx 12) with
          | v -> (attempts, v)
          | exception F.Injected _ ->
              Alcotest.(check (list string))
                (name ^ " invariants after injected exn")
                []
                (Wool.Invariants.check pool);
              go (attempts + 1)
      in
      let attempts, v = go 1 in
      Alcotest.(check int) (name ^ " result after retries") (fib_serial 12) v;
      Alcotest.(check bool) (name ^ " first run raised") true (attempts > 1);
      Wool.shutdown pool)
    all_modes

(* ---- exception propagation from genuinely stolen tasks ---- *)

exception Boom of int

let () =
  Printexc.register_printer (function
    | Boom n -> Some (Printf.sprintf "Boom(%d)" n)
    | _ -> None)

(* The failing task publishes its executing worker through [started]
   before raising; the parent spins until then, so by the time it joins,
   the task has provably been stolen (it runs on another worker while
   the parent is still inside [run]). The body also leaves two unjoined
   children behind: the unwind must drain them — each exactly once —
   before the exception crosses the steal boundary. *)
let await_flag = Test_util.await_flag

let stolen_exception_scenario mode =
  let config =
    Wool.Config.make ~workers:2 ~mode ~publicity:Wool.All_public ()
  in
  let pool = Wool.create ~config () in
  let started = Atomic.make (-1) in
  let child_runs = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () -> Wool.shutdown pool)
    (fun () ->
      ignore
        (Wool.run pool (fun ctx ->
             let f =
               Wool.spawn ctx (fun ctx ->
                   let c1 =
                     Wool.spawn ctx (fun _ ->
                         Atomic.incr child_runs;
                         1)
                   in
                   let c2 =
                     Wool.spawn ctx (fun _ ->
                         Atomic.incr child_runs;
                         2)
                   in
                   Atomic.set started (Wool.self_id ctx);
                   if Atomic.get started >= 0 then raise (Boom 42);
                   let v2 = Wool.join ctx c2 in
                   v2 + Wool.join ctx c1)
             in
             await_flag started;
             Wool.join ctx f)
          : int));
  `Completed

let test_stolen_exception_all_modes () =
  Printexc.record_backtrace true;
  List.iter
    (fun (name, mode) ->
      let caught = ref false in
      let bt_frames = ref 0 in
      (try ignore (stolen_exception_scenario mode : [ `Completed ])
       with Boom 42 ->
         caught := true;
         bt_frames := Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()));
      Alcotest.(check bool) (name ^ " Boom propagated") true !caught;
      if Printexc.backtrace_status () then
        Alcotest.(check bool)
          (name ^ " backtrace preserved across steal")
          true (!bt_frames > 0))
    all_modes

let test_stolen_exception_drains_children () =
  List.iter
    (fun (name, mode) ->
      let config =
        Wool.Config.make ~workers:2 ~mode ~publicity:Wool.All_public ()
      in
      let pool = Wool.create ~config () in
      let started = Atomic.make (-1) in
      let child_runs = Atomic.make 0 in
      (try
         ignore
           (Wool.run pool (fun ctx ->
                let f =
                  Wool.spawn ctx (fun ctx ->
                      let c1 =
                        Wool.spawn ctx (fun _ ->
                            Atomic.incr child_runs;
                            1)
                      in
                      let c2 =
                        Wool.spawn ctx (fun _ ->
                            Atomic.incr child_runs;
                            2)
                      in
                      Atomic.set started (Wool.self_id ctx);
                      if Atomic.get started >= 0 then raise (Boom 7);
                      let v2 = Wool.join ctx c2 in
                      v2 + Wool.join ctx c1)
                in
                await_flag started;
                Wool.join ctx f)
             : int)
       with Boom 7 -> ());
      Alcotest.(check int) (name ^ " children each ran once") 2
        (Atomic.get child_runs);
      Alcotest.(check (list string)) (name ^ " invariants") []
        (Wool.Invariants.check pool);
      (* the pool stays usable after the unwind *)
      Alcotest.(check int) (name ^ " pool reusable") (fib_serial 12)
        (Wool.run pool (fun ctx -> fib ctx 12));
      Wool.shutdown pool)
    all_modes

let test_exception_unwind_nested_depth () =
  (* exception under several live ancestor frames: everything spawned on
     the way down must be joined or drained *)
  List.iter
    (fun (_name, mode) ->
      let pool = Test_util.create ~workers:2 ~mode () in
      (* the raise always arrives through the LIFO-most join, with the
         sibling [f] still unjoined at every one of the 12 levels — the
         unwind must drain each of them *)
      let rec deep ctx n =
        if n = 0 then raise (Boom n)
        else begin
          let f = Wool.spawn ctx (fun _ -> n) in
          let g = Wool.spawn ctx (fun ctx -> deep ctx (n - 1)) in
          (* explicit sequencing: [+] would evaluate right-to-left *)
          let gv = Wool.join ctx g in
          gv + Wool.join ctx f
        end
      in
      (try ignore (Wool.run pool (fun ctx -> deep ctx 12) : int)
       with Boom _ -> ());
      Alcotest.(check (list string)) "invariants after nested unwind" []
        (Wool.Invariants.check pool);
      Alcotest.(check int) "pool reusable" (fib_serial 10)
        (Wool.run pool (fun ctx -> fib ctx 10));
      Wool.shutdown pool)
    all_modes

(* ---- shutdown discipline ---- *)

let test_shutdown_idempotent () =
  let pool = Test_util.create ~workers:2 () in
  Alcotest.(check int) "runs" (fib_serial 10)
    (Wool.run pool (fun ctx -> fib ctx 10));
  Wool.shutdown pool;
  Wool.shutdown pool;
  Wool.shutdown pool;
  (* with_pool's Fun.protect shuts down a pool the body already shut *)
  Test_util.with_pool ~workers:2 (fun pool ->
      ignore (Wool.run pool (fun ctx -> fib ctx 8) : int);
      Wool.shutdown pool)

let test_use_after_shutdown_raises () =
  let pool = Test_util.create ~workers:2 () in
  let saved = ref None in
  ignore (Wool.run pool (fun ctx -> saved := Some ctx) : unit);
  Wool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Wool.run: pool is shut down") (fun () ->
      ignore (Wool.run pool (fun _ -> 0) : int));
  match !saved with
  | None -> Alcotest.fail "ctx not captured"
  | Some ctx ->
      Alcotest.check_raises "spawn after shutdown"
        (Invalid_argument "Wool.spawn: pool is shut down") (fun () ->
          ignore (Wool.spawn ctx (fun _ -> 0) : int Wool.future))

(* [shutdown] racing a running job: the job's next spawn is refused,
   also a private one below the worker's high-water depth. Worker 1
   holds a stolen task that waits for that refusal, so [shutdown]'s
   join of worker 1's domain can only return promptly once worker 0's
   spawn has been refused. *)
let test_shutdown_refuses_running_job () =
  let pool = Test_util.create ~workers:2 () in
  let stolen = Atomic.make false
  and looping = Atomic.make false
  and refused = Atomic.make false in
  let rec nest ctx k body =
    if k = 0 then body ctx
    else begin
      let f = Wool.spawn ctx (fun _ -> ()) in
      let r = nest ctx (k - 1) body in
      Wool.join ctx f;
      r
    end
  in
  let rec pairs ctx =
    match Wool.spawn ctx (fun _ -> ()) with
    | f ->
        Wool.join ctx f;
        pairs ctx
    | exception Invalid_argument _ -> Atomic.set refused true
  in
  let job ctx =
    let held =
      Wool.spawn ctx (fun _ ->
          Atomic.set stolen true;
          Test_util.spin_until (fun () -> Atomic.get refused))
    in
    if not (Test_util.spin_until (fun () -> Atomic.get stolen)) then
      failwith "the held task was not stolen";
    (* With worker 1 busy, nothing else is stolen and the public window
       stays [0, 4). A high-water depth of 13, then private pairs at
       index 7. *)
    nest ctx 12 (fun _ -> ());
    nest ctx 6 (fun ctx ->
        Atomic.set looping true;
        pairs ctx);
    Wool.join ctx held
  in
  let runner = Domain.spawn (fun () -> Wool.run pool job) in
  Alcotest.(check bool)
    "the job reaches its private pairs" true
    (Test_util.spin_until (fun () -> Atomic.get looping));
  let t0 = Wool_util.Clock.now_ns () in
  Wool.shutdown pool;
  let waited = Wool_util.Clock.now_ns () - t0 in
  Alcotest.(check bool)
    "the held task saw the refusal" true (Domain.join runner);
  Alcotest.(check bool) "the spawn was refused" true (Atomic.get refused);
  if waited >= 4_000_000_000 then
    Alcotest.failf "shutdown took %d ms to refuse the job" (waited / 1_000_000)

(* ---- the private pair's gates ----

   A private spawn/join pair has a fast path that reads none of the
   pool's gates; it is closed wherever a gate is open. Each gate must
   still act on private pairs: tracing records them, fault sites fire
   on them, and the generic join still runs them into the result cell.
   (Shutdown: [test_use_after_shutdown_raises] and
   [test_shutdown_refuses_running_job]; cancel tokens: test_lifecycle's
   spawn-boundary cancel.) *)

let private_pairs = 500

let pairs ctx =
  let sum = ref 0 in
  for i = 1 to private_pairs do
    sum := !sum + Wool.join ctx (Wool.spawn ctx (fun _ -> i))
  done;
  !sum

let test_private_pair_gates () =
  let expected = private_pairs * (private_pairs + 1) / 2 in
  (* traced: one Spawn and one Inline_private event per pair, and every
     count equal to its worker's events (the ingress's Submit/Admit
     events are the producer's, stamped with worker id 1) *)
  Test_util.with_pool ~workers:1 ~publicity:Wool.All_private ~trace:true
    (fun pool ->
      Wool.Stats.reset pool;
      Wool.trace_clear pool;
      Alcotest.(check int) "traced sum" expected (Wool.run pool pairs);
      let evs = Wool.trace_events pool in
      let s = Wool.Stats.aggregate pool in
      Array.iter
        (fun tag ->
          let events =
            Array.fold_left
              (fun k (e : Wool_trace.Event.t) ->
                if e.worker = 0 && e.tag = tag then k + 1 else k)
              0 evs
          in
          Alcotest.(check int) "events = count" events (Wool.Stats.count s tag))
        Wool_trace.Event.all_tags;
      Alcotest.(check int) "spawn events" private_pairs
        (Wool.Stats.count s Spawn);
      Alcotest.(check int) "inline_private events" private_pairs
        (Wool.Stats.count s Inline_private));
  (* faults: the Spawn and Join sites fire at every private pair *)
  let rule site =
    { F.Plan.site; kind = F.Kind.Delay 1; rate = 1.0; max_fires = -1 }
  in
  let plan = F.Plan.make ~seed:3 [ rule F.Site.Spawn; rule F.Site.Join ] in
  Test_util.with_pool ~workers:1 ~publicity:Wool.All_private ~faults:plan
    (fun pool ->
      Alcotest.(check int) "faulted sum" expected (Wool.run pool pairs);
      let stats = Wool.fault_stats pool in
      Alcotest.(check int) "spawn fires" private_pairs
        (F.Stats.count stats F.Site.Spawn);
      Alcotest.(check int) "join fires" private_pairs
        (F.Stats.count stats F.Site.Join));
  (* generic: every inlined join runs the task into its result cell and
     reads the [Ok] back, 2 minor words for a closed body *)
  Test_util.with_pool ~workers:1 ~mode:Wool.Swap_generic (fun pool ->
      Wool.Stats.reset pool;
      let body _ = 1 in
      let words =
        Wool.run pool (fun ctx ->
            let w0 = Gc.minor_words () in
            for _ = 1 to private_pairs do
              ignore (Wool.join ctx (Wool.spawn ctx body) : int)
            done;
            (Gc.minor_words () -. w0) /. float_of_int private_pairs)
      in
      Alcotest.(check (float 0.01)) "generic words per pair" 2. words;
      let n = Wool.Stats.count (Wool.Stats.aggregate pool) in
      Alcotest.(check int) "generic joins inline public" private_pairs
        (n Inline_public);
      Alcotest.(check (list string)) "result cells empty" []
        (Wool.Invariants.check pool))

(* ---- the stall watchdog ---- *)

let test_watchdog_fires_on_stall () =
  let config =
    Wool.Config.make ~workers:1 ~trace:true ~watchdog_interval_ns:10_000_000
      ~watchdog_stalls:3 ()
  in
  let pool = Wool.create ~config () in
  let reports = ref [] in
  Wool.set_on_stall pool (fun r -> reports := r :: !reports);
  (* a worker that makes no scheduler transitions for 0.5s while a run
     is active is exactly what the watchdog exists to catch *)
  Wool.run pool (fun _ -> Unix.sleepf 0.5);
  Wool.shutdown pool;
  Alcotest.(check bool) "watchdog fired" true (Wool.stalls_fired pool >= 1);
  Alcotest.(check bool) "report delivered" true (!reports <> []);
  List.iter
    (fun r ->
      match Json.parse r with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("stall report not valid JSON: " ^ e))
    !reports;
  let r = List.hd !reports in
  let contains needle = Test_util.contains r needle in
  Alcotest.(check bool) "report type tag" true
    (contains "\"type\":\"wool_stall_report\"");
  Alcotest.(check bool) "report has workers" true (contains "\"workers\"")

let test_watchdog_quiet_on_healthy_run () =
  let config =
    Wool.Config.make ~workers:2 ~watchdog_interval_ns:5_000_000
      ~watchdog_stalls:60 ()
  in
  let pool = Wool.create ~config () in
  for _ = 1 to 3 do
    Alcotest.(check int) "fib" (fib_serial 18)
      (Wool.run pool (fun ctx -> fib ctx 18))
  done;
  Wool.shutdown pool;
  Alcotest.(check int) "no stall reports" 0 (Wool.stalls_fired pool)

let test_stall_report_always_valid () =
  (* callable at any time, on any pool, watchdog or not *)
  List.iter
    (fun (_name, mode) ->
      let pool = Test_util.create ~workers:2 ~mode () in
      ignore (Wool.run pool (fun ctx -> fib ctx 10) : int);
      (match Json.parse (Wool.stall_report pool) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid report: " ^ e));
      Wool.shutdown pool)
    all_modes

(* The dequeue-time sites: a pre-cancelled job crosses [Cancel] and a
   past-deadline job crosses [Expire], once each, on the draining
   worker's injector, before the ingress settles them unrun. *)
let test_dequeue_sites_fire () =
  let rule site =
    { F.Plan.site; kind = F.Kind.Delay 1; rate = 1.0; max_fires = -1 }
  in
  let plan = F.Plan.make ~seed:1 [ rule F.Site.Cancel; rule F.Site.Expire ] in
  Test_util.with_pool ~workers:1 ~faults:plan (fun pool ->
      let ran = Atomic.make 0 in
      let body _ = Atomic.incr ran in
      let token = Wool.Cancel.create () in
      Wool.Cancel.cancel token;
      let cancelled = Wool.Submit.submit ~cancel:token pool body in
      let deadline = Wool_util.Clock.now_ns () - 1 in
      let expired = Wool.Submit.submit ~deadline pool body in
      (* worker 0 drains the two jobs queued ahead of its own *)
      Wool.run pool (fun _ -> ());
      Alcotest.(check bool) "cancelled" true
        (Wool.Submit.poll cancelled = `Cancelled);
      Alcotest.(check bool) "expired" true
        (Wool.Submit.poll expired = `Expired);
      Alcotest.(check int) "no body ran" 0 (Atomic.get ran);
      let stats = Wool.fault_stats pool in
      let fired site = F.Stats.count stats site in
      Alcotest.(check int) "cancel site fired" 1 (fired F.Site.Cancel);
      Alcotest.(check int) "expire site fired" 1 (fired F.Site.Expire);
      Alcotest.(check (list string))
        "invariants" [] (Wool.Invariants.check pool))

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
        Alcotest.test_case "injector deterministic" `Quick
          test_injector_deterministic;
        Alcotest.test_case "injector counts" `Quick test_injector_counts;
        Alcotest.test_case "plan validation" `Quick test_plan_validation;
        Alcotest.test_case "fib under faults all modes" `Slow
          test_fib_under_faults_all_modes;
        Alcotest.test_case "forced steal failures" `Quick
          test_forced_steal_failures_counted;
        Alcotest.test_case "injected exception pool survives" `Slow
          test_injected_exception_pool_survives;
        Alcotest.test_case "stolen exception all modes" `Slow
          test_stolen_exception_all_modes;
        Alcotest.test_case "stolen exception drains children" `Slow
          test_stolen_exception_drains_children;
        Alcotest.test_case "nested unwind depth" `Quick
          test_exception_unwind_nested_depth;
        Alcotest.test_case "shutdown idempotent" `Quick
          test_shutdown_idempotent;
        Alcotest.test_case "use after shutdown" `Quick
          test_use_after_shutdown_raises;
        Alcotest.test_case "shutdown refuses a running job" `Quick
          test_shutdown_refuses_running_job;
        Alcotest.test_case "private fast path keeps every gate" `Quick
          test_private_pair_gates;
        Alcotest.test_case "watchdog fires on stall" `Quick
          test_watchdog_fires_on_stall;
        Alcotest.test_case "watchdog quiet when healthy" `Slow
          test_watchdog_quiet_on_healthy_run;
        Alcotest.test_case "stall report valid JSON" `Quick
          test_stall_report_always_valid;
        Alcotest.test_case "cancel and expire sites fire" `Quick
          test_dequeue_sites_fire;
      ] );
  ]
