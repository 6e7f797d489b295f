let all_modes = Test_util.all_modes
let fib = Test_util.fib
let fib_serial = Test_util.fib_serial

let test_fib_all_modes_serial () =
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:1 ~mode (fun pool ->
          Alcotest.(check int)
            (name ^ " 1 worker")
            (fib_serial 20)
            (Wool.run pool (fun ctx -> fib ctx 20))))
    all_modes

let test_fib_all_modes_parallel () =
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:4 ~mode (fun pool ->
          Alcotest.(check int)
            (name ^ " 4 workers")
            (fib_serial 22)
            (Wool.run pool (fun ctx -> fib ctx 22))))
    all_modes

let test_publicity_variants () =
  List.iter
    (fun publicity ->
      Test_util.with_pool ~workers:3 ~mode:Wool.Private ~publicity (fun pool ->
          Alcotest.(check int) "fib" (fib_serial 20)
            (Wool.run pool (fun ctx -> fib ctx 20))))
    [ Wool.All_private; Wool.All_public; Wool.Adaptive 1; Wool.Adaptive 8 ]

let test_repeated_runs () =
  Test_util.with_pool ~workers:2 (fun pool ->
      for n = 5 to 15 do
        Alcotest.(check int) "fib n" (fib_serial n)
          (Wool.run pool (fun ctx -> fib ctx n))
      done)

let test_spawn_returns_value_via_join () =
  Test_util.with_pool ~workers:1 (fun pool ->
      let r =
        Wool.run pool (fun ctx ->
            let f = Wool.spawn ctx (fun _ -> "hello") in
            Wool.join ctx f)
      in
      Alcotest.(check string) "value" "hello" r)

(* An out-of-order join is refused before it touches the task pool, in
   every mode: the pool stays usable and the right-order joins that
   follow still find both tasks. *)
let test_lifo_violation_raises () =
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:1 ~mode (fun pool ->
          Wool.run pool (fun ctx ->
              let a = Wool.spawn ctx (fun _ -> 1) in
              let b = Wool.spawn ctx (fun _ -> 2) in
              (match Wool.join ctx a with
              | _ -> Alcotest.failf "%s: expected LIFO violation" name
              | exception Invalid_argument _ -> ());
              (* clean up in the right order *)
              Alcotest.(check int) (name ^ " b") 2 (Wool.join ctx b);
              Alcotest.(check int) (name ^ " a") 1 (Wool.join ctx a));
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    all_modes

let test_exception_propagates_inline () =
  Test_util.with_pool ~workers:1 (fun pool ->
      Wool.run pool (fun ctx ->
          let f = Wool.spawn ctx (fun _ -> failwith "task boom") in
          match Wool.join ctx f with
          | exception Failure msg -> Alcotest.(check string) "msg" "task boom" msg
          | () -> Alcotest.fail "expected exception"))

let test_exception_propagates_stolen () =
  (* Force stealing by keeping the spawner busy; the stolen task raises and
     the exception must surface at the join. *)
  Test_util.with_pool ~workers:4 ~publicity:Wool.All_public (fun pool ->
      let saw = ref 0 in
      Wool.run pool (fun ctx ->
          for _ = 1 to 200 do
            let f = Wool.spawn ctx (fun _ -> failwith "remote boom") in
            (* do some work so a thief has time to take the task *)
            ignore (Sys.opaque_identity (fib_serial 12) : int);
            match Wool.join ctx f with
            | exception Failure _ -> incr saw
            | () -> Alcotest.fail "expected exception"
          done);
      Alcotest.(check int) "all raised" 200 !saw)

let test_call () =
  Test_util.with_pool ~workers:1 (fun pool ->
      Alcotest.(check int) "call" 7
        (Wool.run pool (fun ctx -> Wool.call ctx (fun _ -> 7))))

let test_parallel_for_covers_range () =
  List.iter
    (fun workers ->
      Test_util.with_pool ~workers (fun pool ->
          let n = 1000 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Wool.run pool (fun ctx ->
              Wool.parallel_for ctx ~grain:7 0 n (fun i -> Atomic.incr hits.(i)));
          Array.iteri
            (fun i c ->
              if Atomic.get c <> 1 then
                Alcotest.failf "index %d hit %d times" i (Atomic.get c))
            hits))
    [ 1; 4 ]

let test_parallel_for_empty () =
  Test_util.with_pool ~workers:1 (fun pool ->
      Wool.run pool (fun ctx ->
          Wool.parallel_for ctx 5 5 (fun _ -> Alcotest.fail "must not run")))

let test_parallel_reduce () =
  Test_util.with_pool ~workers:3 (fun pool ->
      let n = 5000 in
      let total =
        Wool.run pool (fun ctx ->
            Wool.parallel_reduce ctx ~grain:13 1 (n + 1) ~neutral:0 Fun.id ( + ))
      in
      Alcotest.(check int) "sum" (n * (n + 1) / 2) total)

let test_both () =
  Test_util.with_pool ~workers:2 (fun pool ->
      let a, b =
        Wool.run pool (fun ctx ->
            Wool.both ctx (fun _ -> fib_serial 10) (fun _ -> fib_serial 11))
      in
      Alcotest.(check int) "left" (fib_serial 10) a;
      Alcotest.(check int) "right" (fib_serial 11) b)

let test_stats_spawns () =
  Test_util.with_pool ~workers:1 (fun pool ->
      Wool.Stats.reset pool;
      ignore (Wool.run pool (fun ctx -> fib ctx 10) : int);
      let s = Wool.Stats.aggregate pool in
      (* fib spawns once per internal node *)
      let rec internal n = if n < 2 then 0 else 1 + internal (n - 1) + internal (n - 2) in
      Alcotest.(check int) "spawn count" (internal 10) (Wool.Stats.count s Spawn);
      Wool.Stats.reset pool;
      Alcotest.(check int)
        "reset" 0
        (Wool.Stats.count (Wool.Stats.aggregate pool) Spawn))

let test_stats_accounting_consistency () =
  Test_util.with_pool ~workers:4 ~publicity:(Wool.Adaptive 2) (fun pool ->
      Wool.Stats.reset pool;
      ignore (Wool.run pool (fun ctx -> fib ctx 22) : int);
      let n = Wool.Stats.count (Wool.Stats.aggregate pool) in
      Alcotest.(check int) "every spawn joined exactly once" (n Spawn)
        (n Inline_private + n Inline_public + n Join_stolen);
      Alcotest.(check int) "stolen joins = steals" (n Join_stolen) (n Steal_ok);
      if n Steal_ok > 100 then
        Alcotest.(check bool) "backoffs below 5%" true
          (float_of_int (n Steal_backoff) <= 0.05 *. float_of_int (n Steal_ok)))

let test_max_pool_depth_stat () =
  (* a flat spawn loop occupies one descriptor per pending iteration *)
  Test_util.with_pool ~workers:1 ~publicity:Wool.All_private (fun pool ->
      Wool.Stats.reset pool;
      Wool.run pool (fun ctx ->
          let futs = List.init 300 (fun i -> Wool.spawn ctx (fun _ -> i)) in
          List.iteri
            (fun i fut -> ignore (Wool.join ctx fut : int); ignore i)
            (List.rev futs));
      Alcotest.(check int) "O(n) descriptors" 300
        (Wool.Stats.max_pool_depth (Wool.Stats.aggregate pool)));
  (* deep recursion occupies one per level: fib n spawns at depths 0 to
     n - 2 along its fib (n - 1) spine *)
  Test_util.with_pool ~workers:1 (fun pool ->
      Wool.Stats.reset pool;
      ignore (Wool.run pool (fun ctx -> fib ctx 12) : int);
      Alcotest.(check int) "one per level" 11
        (Wool.Stats.max_pool_depth (Wool.Stats.aggregate pool)))

(* A 1-worker all-private fib is all private pairs, the fast path's
   case: fib 20 spawns once per call with n >= 2 (fib 21 - 1 of them),
   inlines every one privately, and reaches depth 19. *)
let test_private_fib_stats () =
  Test_util.with_pool ~workers:1 ~publicity:Wool.All_private (fun pool ->
      Wool.Stats.reset pool;
      Alcotest.(check int) "fib 20" (fib_serial 20)
        (Wool.run pool (fun ctx -> fib ctx 20));
      let s = Wool.Stats.aggregate pool in
      let n = Wool.Stats.count s in
      Alcotest.(check int) "spawns" 10_945 (n Spawn);
      Alcotest.(check int) "inlined_private" 10_945 (n Inline_private);
      Alcotest.(check int) "inlined_public" 0 (n Inline_public);
      Alcotest.(check int) "max_pool_depth" 19 (Wool.Stats.max_pool_depth s);
      (* a reset restarts the high-water mark *)
      Wool.Stats.reset pool;
      ignore (Wool.run pool (fun ctx -> fib ctx 8) : int);
      Alcotest.(check int) "max_pool_depth after reset" 7
        (Wool.Stats.max_pool_depth (Wool.Stats.aggregate pool));
      Alcotest.(check (list string)) "invariants" []
        (Wool.Invariants.check pool))

(* The stats JSON is a contract: [benchmark/] reads these keys by name
   (its per-op counters and the [inlined_*] pair), so a rename or a
   reorder must fail here rather than in a benchmark run. *)
let stats_json_keys =
  [
    "spawns"; "max_pool_depth"; "inlined_private"; "inlined_public";
    "joins_stolen"; "steals"; "leap_steals"; "backoffs"; "failed_steals";
    "publish_events"; "privatize_events"; "injected";
  ]

let test_stats_json_contract () =
  Test_util.with_pool ~workers:1 (fun pool ->
      ignore (Wool.run pool (fun ctx -> fib ctx 12) : int);
      let s = Wool.Stats.aggregate pool in
      match Wool_trace.Json.parse (Wool.Stats.to_json s) with
      | Ok (Wool_trace.Json.Obj members) ->
          Alcotest.(check (list string))
            "keys, names and order" stats_json_keys (List.map fst members);
          List.iter
            (fun (name, key) ->
              Alcotest.(check (option (float 0.)))
                (name ^ " value")
                (Some (float_of_int (Wool.Stats.get s key)))
                (Option.bind (List.assoc_opt name members)
                   Wool_trace.Json.to_float))
            Wool.Stats.keys
      | Ok _ -> Alcotest.fail "stats JSON is not an object"
      | Error e -> Alcotest.fail e)

(* [combine] adds every count and takes the larger high-water depth. *)
let test_stats_combine () =
  let table ~per_tag ~depth =
    Wool.Stats.of_events
      (Array.concat
         (Array.to_list
            (Array.mapi
               (fun i tag ->
                 Array.make (per_tag i)
                   { Wool_trace.Event.ts = 0; worker = 0; tag; a = -1; b = -1 })
               Wool_trace.Event.all_tags)
         @ [ [| { Wool_trace.Event.ts = 0; worker = 0; tag = Spawn;
                  a = depth - 1; b = -1 } |] ]))
  in
  let a = table ~per_tag:(fun i -> 20 - i) ~depth:7
  and b = table ~per_tag:(fun i -> 40 - (2 * i)) ~depth:3 in
  let c = Wool.Stats.combine a b in
  List.iter
    (fun (name, key) ->
      let get s = Wool.Stats.get s key in
      let op = if key = Wool.Stats.Max_pool_depth then max else ( + ) in
      Alcotest.(check int) name (op (get a) (get b)) (get c))
    Wool.Stats.keys;
  Alcotest.(check int) "depth is the max" 7 (Wool.Stats.max_pool_depth c)

let test_num_workers_and_ids () =
  Test_util.with_pool ~workers:3 (fun pool ->
      Alcotest.(check int) "workers" 3 (Wool.num_workers pool);
      Alcotest.(check int) "main is worker 0" 0
        (Wool.run pool (fun ctx -> Wool.self_id ctx)))

let test_create_validation () =
  let rejects msg f =
    Alcotest.(check bool)
      msg true
      (match f () with
      | (_ : Wool.Config.t) -> false
      | exception Invalid_argument m ->
          String.length m > 12 && String.sub m 0 12 = "Wool.Config:")
  in
  rejects "zero workers" (fun () -> Wool.Config.make ~workers:0 ());
  rejects "negative injection capacity" (fun () ->
      Wool.Config.make ~injection_capacity:(-1) ());
  (* rounding [max_int] up to a power of two used to wrap to 0 and loop;
     no pool is created here *)
  List.iter
    (fun (field, make) ->
      match make () with
      | (_ : Wool.Config.t) -> Alcotest.failf "%s max_int accepted" field
      | exception Invalid_argument m ->
          Alcotest.(check bool)
            ("error names Config and " ^ field)
            true
            (String.starts_with ~prefix:"Wool.Config:" m
            && Test_util.contains m field))
    [
      ("trace_capacity", fun () -> Wool.Config.make ~trace_capacity:max_int ());
      ( "injection_capacity",
        fun () -> Wool.Config.make ~injection_capacity:max_int () );
    ];
  (* the ingress has one lane, and it cannot be closed *)
  List.iter
    (fun admission ->
      rejects
        ("closed ingress with " ^ Wool_policy.Admission.name admission)
        (fun () -> Wool.Config.make ~injection_capacity:0 ~admission ()))
    Wool_policy.Admission.all;
  rejects "server with closed ingress" (fun () ->
      Wool.Config.make ~server:true ~injection_capacity:0
        ~admission:Wool.Reject ());
  rejects "watchdog with bad interval" (fun () ->
      Wool.Config.make ~watchdog_stalls:3 ~watchdog_interval_ns:0 ());
  (* caught here, not first by the direct stack's constructor, whose
     message names neither Config nor the field *)
  List.iter
    (fun w ->
      match Wool.Config.make ~publicity:(Wool.Adaptive w) () with
      | (_ : Wool.Config.t) -> Alcotest.failf "Adaptive %d accepted" w
      | exception Invalid_argument m ->
          Alcotest.(check bool)
            "error names Config and publicity" true
            (String.starts_with ~prefix:"Wool.Config:" m
            && Test_util.contains m "publicity"))
    [ 0; -1 ];
  rejects "Adaptive with zero target" (fun () ->
      Wool.Config.make ~admission:Wool.Adaptive ~admission_target_ns:0 ());
  rejects "Adaptive with negative target" (fun () ->
      Wool.Config.make ~admission:Wool.Adaptive
        ~admission_target_ns:(-5_000) ());
  (* Adaptive with a positive target over an open lane is the intended
     combination, and the target knob is inert under other policies *)
  Alcotest.(check bool)
    "adaptive config validates" true
    (match
       Wool.Config.make ~admission:Wool.Adaptive
         ~admission_target_ns:1_000_000 ()
     with
    | (_ : Wool.Config.t) -> true
    | exception Invalid_argument _ -> false);
  Alcotest.(check bool)
    "target knob inert under Reject" true
    (match
       Wool.Config.make ~admission:Wool.Reject ~admission_target_ns:0 ()
     with
    | (_ : Wool.Config.t) -> true
    | exception Invalid_argument _ -> false)

(* The Mode module is the single name/parse table; every canonical name
   must survive a round trip, the legacy hyphenated spellings in old
   committed BENCH baselines must still parse, and the retired modes
   (the relaxed pair and task_specific) must not. *)
let test_mode_round_trip () =
  Alcotest.(check int) "four modes" 4 (List.length Wool.Mode.all);
  List.iter
    (fun m ->
      let nm = Wool.Mode.name m in
      match Wool.Mode.of_name nm with
      | Some m' ->
          Alcotest.(check bool) (nm ^ " round-trips") true (m = m')
      | None -> Alcotest.failf "canonical name %S does not parse back" nm)
    Wool.Mode.all;
  List.iter
    (fun (alias, expect) ->
      match Wool.Mode.of_name alias with
      | Some m -> Alcotest.(check bool) (alias ^ " alias") true (m = expect)
      | None -> Alcotest.failf "legacy spelling %S does not parse" alias)
    [
      ("swap-generic", Wool.Swap_generic);
      ("swap", Wool.Swap_generic);
      ("chase-lev", Wool.Clev);
      ("chase_lev", Wool.Clev);
      ("PRIVATE", Wool.Private);
    ];
  List.iter
    (fun retired ->
      Alcotest.(check bool)
        (retired ^ " no longer parses") true
        (Wool.Mode.of_name retired = None))
    [
      "ws_mult"; "ws-mult"; "lowsync"; "low-sync"; "task_specific";
      "task-specific";
    ];
  Alcotest.(check bool)
    "unknown name rejected" true
    (Wool.Mode.of_name "bogus" = None)

(* Per-mode accounting on a contended pool: after a quiescent run the
   invariant checker must be green and every spawn's join must balance
   exactly, with each stolen join matched by one steal. *)
let test_stats_and_invariants_all_modes () =
  List.iter
    (fun (nm, mode) ->
      Test_util.with_pool ~workers:4 ~mode (fun pool ->
          Wool.Stats.reset pool;
          Alcotest.(check int)
            (nm ^ " fib digest") (Test_util.fib_serial 20)
            (Wool.run pool (fun ctx -> Test_util.fib ctx 20));
          Alcotest.(check (list string))
            (nm ^ " invariants") []
            (Wool.Invariants.check pool);
          let n = Wool.Stats.count (Wool.Stats.aggregate pool) in
          Alcotest.(check int)
            (nm ^ " every spawn joined exactly once")
            (n Spawn)
            (n Inline_private + n Inline_public + n Join_stolen);
          Alcotest.(check int)
            (nm ^ " stolen joins = steals")
            (n Join_stolen) (n Steal_ok)))
    all_modes

(* [Pool_overflow] unwinding: filling a worker's task pool (its stack
   grows to 65,536 slots, in every mode) must raise the dedicated exception
   before any state is mutated, the exception path must join-or-drain
   everything outstanding, and the pool must come out quiescent and
   reusable. *)
let test_pool_overflow_unwind_all_modes () =
  (* breadth-first: push [n] sibling tasks, join them in LIFO order *)
  let spawned = ref 0 in
  let spawn_n ctx n =
    let futs =
      List.init n (fun i ->
          let f = Wool.spawn ctx (fun _ -> i) in
          incr spawned;
          f)
    in
    List.fold_left (fun acc f -> acc + Wool.join ctx f) 0 (List.rev futs)
  in
  let n = 65_537 in
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:2 ~mode (fun pool ->
          spawned := 0;
          Alcotest.check_raises (name ^ " overflow") Wool.Pool_overflow
            (fun () -> ignore (Wool.run pool (fun ctx -> spawn_n ctx n) : int));
          Alcotest.(check int) (name ^ " overflows at exactly 65,536") 65_536
            !spawned;
          Alcotest.(check (list string)) (name ^ " invariants after unwind")
            [] (Wool.Invariants.check pool);
          (* the pool is reusable: same pool, fresh computation *)
          Alcotest.(check int) (name ^ " reusable") (fib_serial 12)
            (Wool.run pool (fun ctx -> fib ctx 12));
          Alcotest.(check (list string)) (name ^ " invariants after reuse")
            [] (Wool.Invariants.check pool)))
    all_modes

let test_stress_kernel_matches_serial () =
  let module S = Wool_workloads.Stress in
  S.reset_leaf_result ();
  S.serial ~height:6 ~leaf_iters:100;
  let expected = S.leaf_result () in
  List.iter
    (fun (name, mode) ->
      S.reset_leaf_result ();
      Test_util.with_pool ~workers:3 ~mode (fun pool ->
          Wool.run pool (fun ctx -> S.wool ctx ~height:6 ~leaf_iters:100));
      Alcotest.(check int) (name ^ " checksum") expected (S.leaf_result ()))
    all_modes

let test_steal_policies_complete () =
  (* every selector x backoff combination of the shared policy layer must
     run fib correctly on the real runtime *)
  List.iter
    (fun policy ->
      let config =
        Wool.Config.make ~workers:2 ~publicity:Wool.All_public ~policy ()
      in
      let pool = Wool.create ~config () in
      Alcotest.(check string) "policy name plumbed"
        (Wool_policy.name policy)
        (Wool_policy.name (Wool.policy pool));
      let got = Wool.run pool (fun ctx -> fib ctx 18) in
      Wool.shutdown pool;
      Alcotest.(check int) (Wool_policy.name policy) (fib_serial 18) got)
    (Wool_policy.sweep ());
  (* and each selector must preserve the stress kernel's checksum *)
  let module S = Wool_workloads.Stress in
  S.reset_leaf_result ();
  S.serial ~height:6 ~leaf_iters:100;
  let expected = S.leaf_result () in
  List.iter
    (fun selector ->
      S.reset_leaf_result ();
      let config =
        Wool.Config.make ~workers:2
          ~policy:(Wool_policy.make ~selector ())
          ()
      in
      Wool.with_pool ~config (fun pool ->
          Wool.run pool (fun ctx -> S.wool ctx ~height:6 ~leaf_iters:100));
      Alcotest.(check int)
        (Wool_policy.Selector.name selector ^ " checksum")
        expected (S.leaf_result ()))
    Wool_policy.Selector.all

let test_steal_policies_do_steal () =
  (* with two workers and all-public tasks every selector must eventually
     migrate work; steal counts are stochastic on a loaded host, so retry
     a few times and only then call it a failure *)
  List.iter
    (fun selector ->
      let config =
        Wool.Config.make ~workers:2 ~publicity:Wool.All_public
          ~policy:(Wool_policy.make ~selector ())
          ()
      in
      let rec attempt tries =
        let pool = Wool.create ~config () in
        ignore (Wool.run pool (fun ctx -> fib ctx 22) : int);
        let agg = Wool.Stats.aggregate pool in
        Wool.shutdown pool;
        if Wool.Stats.count agg Steal_ok > 0 then ()
        else if tries > 1 then attempt (tries - 1)
        else
          Alcotest.failf "%s: no successful steals in several fib(22) runs"
            (Wool_policy.Selector.name selector)
      in
      attempt 5)
    Wool_policy.Selector.all

let qcheck_parallel_reduce_matches_fold =
  QCheck.Test.make ~name:"parallel_reduce = List.fold_left" ~count:20
    QCheck.(list_of_size (Gen.int_range 0 200) small_signed_int)
    (fun xs ->
      let arr = Array.of_list xs in
      let expected = Array.fold_left ( + ) 0 arr in
      Test_util.with_pool ~workers:2 (fun pool ->
          Wool.run pool (fun ctx ->
              Wool.parallel_reduce ctx ~grain:5 0 (Array.length arr) ~neutral:0
                (fun i -> arr.(i))
                ( + ))
          = expected))

(* Lazy clearing: a joined task's future stays in its stack slot until
   the worker sweeps its stack where it unwinds to its base. Once
   [Wool.run] returns, no closure of the job may still be reachable from
   the (live) pool. [big_block] registers a 1 MiB block in [weak], for
   task bodies to capture. *)
let big_block weak =
  let b = Bytes.make (1 lsl 20) 'x' in
  Weak.set weak 0 (Some b);
  b

let collected weak =
  Gc.full_major ();
  not (Weak.check weak 0)

(* Two nested levels of joined spawns, each capturing the block: the
   sweep must clear the whole dead run, not just the slot at [top]. *)
let nested_spawns ctx weak =
  let b = big_block weak in
  let f =
    Wool.spawn ctx (fun ctx ->
        let g = Wool.spawn ctx (fun _ -> Bytes.length b) in
        Wool.join ctx g + Bytes.length b)
  in
  Wool.join ctx f

let test_joined_payload_collected () =
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:1 ~mode (fun pool ->
          let weak = Weak.create 1 in
          Alcotest.(check int) (name ^ " result") (2 lsl 20)
            (Wool.run pool (fun ctx -> nested_spawns ctx weak));
          Alcotest.(check bool) (name ^ ": joined closures collected") true
            (collected weak);
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    all_modes

(* The same for a stolen task: the tasks a thief spawns and joins inside
   it (the thief sweeps its own stack before it marks the steal done),
   and the stolen closure itself, here capturing the block (the victim
   sweeps the slot, and a deque that hands out slot indices holds
   nothing). The root cannot join [a] until the thief has run it, so the
   steal is forced. *)
let test_thief_joined_payload_collected () =
  let bodies =
    [
      ("nested spawns", fun weak ctx -> nested_spawns ctx weak);
      ( "captured block",
        fun weak ->
          let b = big_block weak in
          fun _ -> Bytes.length b );
    ]
  in
  List.iter
    (fun ((name, mode), (input, body)) ->
      let name = Printf.sprintf "%s, %s" name input in
      Test_util.with_pool ~workers:2 ~mode ~publicity:Wool.All_public
        (fun pool ->
          let weak = Weak.create 1 in
          let ran_on = Atomic.make (-1) in
          Wool.run pool (fun ctx ->
              let body = body weak in
              let a =
                Wool.spawn ctx (fun ctx ->
                    let n = body ctx in
                    Atomic.set ran_on (Wool.self_id ctx);
                    n)
              in
              Test_util.await_flag ran_on;
              ignore (Wool.join ctx a : int));
          Alcotest.(check int) (name ^ ": stolen by worker 1") 1
            (Atomic.get ran_on);
          Alcotest.(check bool) (name ^ ": stolen closures collected") true
            (collected weak);
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    (List.concat_map (fun m -> List.map (fun b -> (m, b)) bodies) all_modes)

(* A second join of a future finds an older task in the newest slot and
   is refused; without the check it would take that task's result. *)
let test_join_twice_raises () =
  List.iter
    (fun mode ->
      let name = Wool.Mode.name mode in
      Test_util.with_pool ~workers:1 ~mode (fun pool ->
          Wool.run pool (fun ctx ->
              let a = Wool.spawn ctx (fun _ -> 1) in
              let b = Wool.spawn ctx (fun _ -> 2) in
              Alcotest.(check int) (name ^ " b") 2 (Wool.join ctx b);
              (match Wool.join ctx b with
              | _ -> Alcotest.failf "%s: second join went through" name
              | exception Invalid_argument _ -> ());
              Alcotest.(check int) (name ^ " a") 1 (Wool.join ctx a));
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    Wool.Mode.all

(* Worker 1, running a task it stole, joins a future of worker 0 while
   its own newest slot holds another task: refused. *)
let test_join_other_worker_raises () =
  List.iter
    (fun mode ->
      let name = Wool.Mode.name mode in
      Test_util.with_pool ~workers:2 ~mode ~publicity:Wool.All_public
        (fun pool ->
          let target = Atomic.make None in
          let ran_on = Atomic.make (-1) in
          let verdict =
            Wool.run pool (fun ctx ->
                let a =
                  Wool.spawn ctx (fun ctx ->
                      ignore
                        (Test_util.spin_until (fun () ->
                             Atomic.get target <> None)
                          : bool);
                      let h = Wool.spawn ctx (fun _ -> 2) in
                      let verdict =
                        (* a join that went through took [h]'s slot *)
                        match Wool.join ctx (Option.get (Atomic.get target)) with
                        | _ -> "joined"
                        | exception Invalid_argument _ ->
                            ignore (Wool.join ctx h : int);
                            "refused"
                      in
                      Atomic.set ran_on (Wool.self_id ctx);
                      verdict)
                in
                let mine = Wool.spawn ctx (fun _ -> 1) in
                Atomic.set target (Some mine);
                Test_util.await_flag ran_on;
                Alcotest.(check int) (name ^ " mine") 1 (Wool.join ctx mine);
                Wool.join ctx a)
          in
          Alcotest.(check int) (name ^ ": stolen by worker 1") 1
            (Atomic.get ran_on);
          Alcotest.(check string) (name ^ ": foreign join") "refused" verdict;
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    Wool.Mode.all

(* A stolen task's outcome waits in a result cell for its join, which
   empties the cell: once [Wool.run] returns, a result no one holds is
   collected, and the pool holds no outcome. The steal is forced. *)
let test_stolen_result_collected () =
  List.iter
    (fun mode ->
      let name = Wool.Mode.name mode in
      Test_util.with_pool ~workers:2 ~mode ~publicity:Wool.All_public
        (fun pool ->
          let weak = Weak.create 1 in
          let ran_on = Atomic.make (-1) in
          let n =
            Wool.run pool (fun ctx ->
                let a =
                  Wool.spawn ctx (fun ctx ->
                      let b = big_block weak in
                      Atomic.set ran_on (Wool.self_id ctx);
                      b)
                in
                Test_util.await_flag ran_on;
                Bytes.length (Wool.join ctx a))
          in
          Alcotest.(check int) (name ^ " result") (1 lsl 20) n;
          Alcotest.(check int) (name ^ ": stolen by worker 1") 1
            (Atomic.get ran_on);
          Alcotest.(check bool) (name ^ ": stolen result collected") true
            (collected weak);
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    Wool.Mode.all

(* A spawn chain 200 deep, past the 64 slots a worker's stack starts
   with, so the stack grows twice while a thief steals from it. Each
   level spawns a leaf, and the bottom waits until worker 1 has run 100
   leaves, the oldest first: past slot 64 it steals from the grown
   stack. Every leaf's value comes back through its join. *)
let test_deep_chain_grows_under_steals () =
  let depth = 200 and wanted = 100 in
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:2 ~mode ~publicity:Wool.All_public
        (fun pool ->
          let stolen = Atomic.make 0 in
          let leaf d ctx =
            if Wool.self_id ctx = 1 then Atomic.incr stolen;
            d
          in
          let rec chain ctx d =
            if d = 0 then begin
              Alcotest.(check bool) (name ^ ": worker 1 stole enough") true
                (Test_util.spin_until (fun () -> Atomic.get stolen >= wanted));
              0
            end
            else begin
              let f = Wool.spawn ctx (leaf d) in
              let rest = chain ctx (d - 1) in
              rest + Wool.join ctx f
            end
          in
          Alcotest.(check int) (name ^ " sum") (depth * (depth + 1) / 2)
            (Wool.run pool (fun ctx -> chain ctx depth));
          Alcotest.(check bool) (name ^ ": steals past slot 64") true
            (Atomic.get stolen >= wanted);
          Alcotest.(check (list string)) (name ^ " invariants") []
            (Wool.Invariants.check pool)))
    all_modes

let suite =
  [
    ( "pool",
      [
        Alcotest.test_case "fib serial all modes" `Quick test_fib_all_modes_serial;
        Alcotest.test_case "fib parallel all modes" `Slow
          test_fib_all_modes_parallel;
        Alcotest.test_case "publicity variants" `Slow test_publicity_variants;
        Alcotest.test_case "repeated runs" `Quick test_repeated_runs;
        Alcotest.test_case "join returns value" `Quick
          test_spawn_returns_value_via_join;
        Alcotest.test_case "LIFO violation" `Quick test_lifo_violation_raises;
        Alcotest.test_case "exception inline" `Quick
          test_exception_propagates_inline;
        Alcotest.test_case "exception stolen" `Slow
          test_exception_propagates_stolen;
        Alcotest.test_case "call" `Quick test_call;
        Alcotest.test_case "parallel_for coverage" `Quick
          test_parallel_for_covers_range;
        Alcotest.test_case "parallel_for empty" `Quick test_parallel_for_empty;
        Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
        Alcotest.test_case "both" `Quick test_both;
        Alcotest.test_case "spawn stats" `Quick test_stats_spawns;
        Alcotest.test_case "stats consistency" `Slow
          test_stats_accounting_consistency;
        Alcotest.test_case "max pool depth" `Quick test_max_pool_depth_stat;
        Alcotest.test_case "private fib stats" `Quick test_private_fib_stats;
        Alcotest.test_case "stats JSON contract" `Quick test_stats_json_contract;
        Alcotest.test_case "stats combine" `Quick test_stats_combine;
        Alcotest.test_case "workers and ids" `Quick test_num_workers_and_ids;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "mode round trip" `Quick test_mode_round_trip;
        Alcotest.test_case "stats and invariants all modes" `Slow
          test_stats_and_invariants_all_modes;
        Alcotest.test_case "overflow unwind all modes" `Quick
          test_pool_overflow_unwind_all_modes;
        Alcotest.test_case "stress kernel checksum" `Slow
          test_stress_kernel_matches_serial;
        Alcotest.test_case "steal policies complete" `Slow
          test_steal_policies_complete;
        Alcotest.test_case "steal policies steal" `Slow
          test_steal_policies_do_steal;
        Alcotest.test_case "joined payload collected" `Quick
          test_joined_payload_collected;
        Alcotest.test_case "thief's joined payload collected" `Quick
          test_thief_joined_payload_collected;
        Alcotest.test_case "join twice" `Quick test_join_twice_raises;
        Alcotest.test_case "join another worker's future" `Quick
          test_join_other_worker_raises;
        Alcotest.test_case "stolen result collected" `Quick
          test_stolen_result_collected;
        Alcotest.test_case "deep chain grows under steals" `Quick
          test_deep_chain_grows_under_steals;
        QCheck_alcotest.to_alcotest qcheck_parallel_reduce_matches_fold;
      ] );
  ]
