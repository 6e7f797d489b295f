(* Wool_ropes: structural operations, every parallel op against an
   Array/List oracle across all modes x publicity and both split
   schedules, the steal-pressure hook itself, and the parallel_* helper
   regressions (grain validation, element-0 accounting, duplicated-body
   behavior under the Dup drain fault) that ride along with the rope
   layer. *)

module R = Wool_ropes

let check_arr msg expected t =
  Alcotest.(check (array int)) msg expected (R.to_array t)

(* ---- structural operations (no pool) ---- *)

let test_of_array_round_trip () =
  List.iter
    (fun leaf ->
      List.iter
        (fun n ->
          let a = Array.init n (fun i -> i * 3) in
          let t = R.of_array ~leaf a in
          Alcotest.(check int)
            (Printf.sprintf "length n=%d leaf=%d" n leaf)
            n (R.length t);
          check_arr (Printf.sprintf "round trip n=%d leaf=%d" n leaf) a t)
        [ 0; 1; 2; 5; 511; 512; 513; 2000 ])
    [ 1; 3; 512 ];
  Alcotest.check_raises "leaf 0 rejected"
    (Invalid_argument "Wool_ropes.of_array: leaf must be positive") (fun () ->
      ignore (R.of_array ~leaf:0 [| 1 |] : int R.t))

let test_of_array_copies () =
  let a = [| 1; 2; 3 |] in
  let t = R.of_array a in
  a.(1) <- 99;
  check_arr "rope unaffected by source mutation" [| 1; 2; 3 |] t

let test_get () =
  let n = 1000 in
  let a = Array.init n (fun i -> i * 7) in
  let t = R.of_array ~leaf:16 a in
  for i = 0 to n - 1 do
    if R.get t i <> a.(i) then Alcotest.failf "get %d mismatched" i
  done;
  let oob = Invalid_argument "Wool_ropes.get: index out of bounds" in
  Alcotest.check_raises "get -1" oob (fun () -> ignore (R.get t (-1) : int));
  Alcotest.check_raises "get n" oob (fun () -> ignore (R.get t n : int));
  Alcotest.check_raises "get on empty" oob (fun () ->
      ignore (R.get R.empty 0 : int))

let test_list_round_trip () =
  List.iter
    (fun l ->
      Alcotest.(check (list int)) "of_list/to_list" l (R.to_list (R.of_list l)))
    [ []; [ 1 ]; [ 5; 4; 3; 2; 1 ]; List.init 700 Fun.id ]

let test_append_correct () =
  let a = Array.init 700 Fun.id and b = Array.init 300 (fun i -> -i) in
  check_arr "append" (Array.append a b)
    (R.append (R.of_array ~leaf:32 a) (R.of_array ~leaf:32 b));
  let t = R.of_array a in
  check_arr "append empty left" a (R.append R.empty t);
  check_arr "append empty right" a (R.append t R.empty)

let test_append_small_merges () =
  (* two tiny ropes merge into a single leaf, not a Cat chain *)
  let t = R.append (R.of_list [ 1; 2 ]) (R.of_list [ 3 ]) in
  Alcotest.(check int) "merged depth" 0 (R.depth t);
  check_arr "merged content" [| 1; 2; 3 |] t

let ilog2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let test_append_skew_stays_balanced () =
  (* the worst case for a naive Cat: repeatedly appending one element.
     Depth must stay O(log n), the contract [get] relies on. *)
  let t = ref R.empty in
  for i = 0 to 4999 do
    t := R.append !t (R.of_list [ i ])
  done;
  check_arr "content survives rebalancing" (Array.init 5000 Fun.id) !t;
  let bound = ilog2 (R.length !t) + 2 in
  if R.depth !t > bound then
    Alcotest.failf "append chain depth %d > log bound %d" (R.depth !t) bound;
  (* and the same, prepending *)
  let t = ref R.empty in
  for i = 4999 downto 0 do
    t := R.append (R.of_list [ i ]) !t
  done;
  check_arr "prepend content" (Array.init 5000 Fun.id) !t;
  if R.depth !t > bound then
    Alcotest.failf "prepend chain depth %d > log bound %d" (R.depth !t) bound

(* ---- parallel operations vs oracles, across modes x publicity ---- *)

let splits = [ ("lazy", R.Lazy_split 5); ("eager", R.Eager 16) ]

(* Publicity only matters on the direct-stack modes, but sweeping it
   everywhere is harmless (non-direct pools ignore it). *)
let publicities = [ ("private", Wool.All_private); ("public", Wool.All_public) ]

let oracle_data = Array.init 1500 (fun i -> i * 37 mod 101)

let test_ops_match_oracles () =
  List.iter
    (fun (mn, mode) ->
      List.iter
        (fun (pn, publicity) ->
          Test_util.with_pool ~workers:3 ~mode ~publicity (fun pool ->
              List.iter
                (fun (sn, split) ->
                  let nm op = Printf.sprintf "%s %s/%s/%s" op mn pn sn in
                  let data = oracle_data in
                  let n = Array.length data in
                  let t = R.of_array ~leaf:64 data in
                  Wool.run pool (fun ctx ->
                      check_arr (nm "map")
                        (Array.map (fun x -> (x * 2) + 1) data)
                        (R.map ctx ~split (fun x -> (x * 2) + 1) t);
                      Alcotest.(check int) (nm "reduce")
                        (Array.fold_left ( + ) 0 data)
                        (R.reduce ctx ~split ~neutral:0 ~combine:( + ) Fun.id t);
                      Alcotest.(check int) (nm "reduce max")
                        (Array.fold_left max min_int data)
                        (R.reduce ctx ~split ~neutral:min_int ~combine:max
                           Fun.id t);
                      check_arr (nm "build")
                        (Array.init n (fun i -> i * i))
                        (R.build ctx ~split n (fun i -> i * i));
                      let out = Array.make n (-1) in
                      R.for_each ctx ~split (fun i x -> out.(i) <- x + i) t;
                      Alcotest.(check (array int)) (nm "for_each")
                        (Array.mapi (fun i x -> x + i) data)
                        out;
                      let prefix = Array.make n 0 in
                      let acc = ref 0 in
                      Array.iteri
                        (fun i x ->
                          acc := !acc + x;
                          prefix.(i) <- !acc)
                        data;
                      check_arr (nm "scan") prefix
                        (R.scan ctx ~split ~neutral:0 ~combine:( + ) t);
                      let keep x = x land 1 = 0 in
                      check_arr (nm "filter")
                        (Array.of_list
                           (List.filter keep (Array.to_list data)))
                        (R.filter ctx ~split keep t)))
                splits))
        publicities)
    Test_util.all_modes

let test_scan_non_commutative () =
  (* string concatenation is associative but not commutative: any block
     mis-seeding or left/right swap in the scan shows up immediately *)
  Test_util.with_pool ~workers:3 (fun pool ->
      let n = 300 in
      let data = Array.init n (fun i -> Printf.sprintf "%d." i) in
      let expected = Array.make n "" in
      let acc = ref "" in
      Array.iteri
        (fun i x ->
          acc := !acc ^ x;
          expected.(i) <- !acc)
        data;
      List.iter
        (fun (sn, split) ->
          let got =
            Wool.run pool (fun ctx ->
                R.to_array
                  (R.scan ctx ~split ~neutral:"" ~combine:( ^ )
                     (R.of_array ~leaf:16 data)))
          in
          Alcotest.(check (array string)) ("scan concat " ^ sn) expected got)
        splits)

let test_ops_empty_and_singleton () =
  Test_util.with_pool ~workers:2 (fun pool ->
      Wool.run pool (fun ctx ->
          check_arr "map empty" [||] (R.map ctx (fun x -> x + 1) R.empty);
          check_arr "build 0" [||] (R.build ctx 0 (fun _ -> 9));
          Alcotest.(check int) "reduce empty" 0
            (R.reduce ctx ~neutral:0 ~combine:( + ) Fun.id R.empty);
          check_arr "scan empty" [||]
            (R.scan ctx ~neutral:0 ~combine:( + ) R.empty);
          check_arr "filter empty" [||] (R.filter ctx (fun _ -> true) R.empty);
          R.for_each ctx (fun _ _ -> Alcotest.fail "for_each on empty ran")
            (R.empty : int R.t);
          let one = R.of_list [ 41 ] in
          check_arr "map singleton" [| 42 |] (R.map ctx (fun x -> x + 1) one);
          Alcotest.(check int) "reduce singleton" 41
            (R.reduce ctx ~neutral:0 ~combine:( + ) Fun.id one);
          check_arr "scan singleton" [| 41 |]
            (R.scan ctx ~neutral:0 ~combine:( + ) one);
          check_arr "filter none" [||] (R.filter ctx (fun _ -> false) one);
          check_arr "filter all" [| 41 |] (R.filter ctx (fun _ -> true) one);
          check_arr "build 1" [| 7 |] (R.build ctx 1 (fun _ -> 7))))

let test_bad_split_rejected () =
  Test_util.with_pool ~workers:1 (fun pool ->
      Wool.run pool (fun ctx ->
          let t = R.of_list [ 1; 2; 3 ] in
          let expect_invalid name f =
            match f () with
            | _ -> Alcotest.failf "%s accepted a non-positive split" name
            | exception Invalid_argument _ -> ()
          in
          expect_invalid "map lazy 0" (fun () ->
              R.map ctx ~split:(R.Lazy_split 0) Fun.id t);
          expect_invalid "reduce eager -1" (fun () ->
              R.reduce ctx ~split:(R.Eager (-1)) ~neutral:0 ~combine:( + )
                Fun.id t);
          expect_invalid "scan lazy -3" (fun () ->
              R.scan ctx ~split:(R.Lazy_split (-3)) ~neutral:0 ~combine:( + ) t);
          expect_invalid "filter eager 0" (fun () ->
              R.filter ctx ~split:(R.Eager 0) (fun _ -> true) t);
          expect_invalid "build lazy 0" (fun () ->
              R.build ctx ~split:(R.Lazy_split 0) 3 Fun.id);
          expect_invalid "build negative" (fun () ->
              R.build ctx (-1) (fun _ -> 0))))

(* Lazy splitting on one worker must never spawn: no thieves, no
   pressure, the whole range runs as a plain loop. *)
let test_lazy_one_worker_zero_spawns () =
  List.iter
    (fun (nm, mode) ->
      Test_util.with_pool ~workers:1 ~mode (fun pool ->
          Wool.Stats.reset pool;
          let got =
            Wool.run pool (fun ctx ->
                R.reduce ctx ~split:(R.Lazy_split 8) ~neutral:0 ~combine:( + )
                  Fun.id
                  (R.of_array ~leaf:32 (Array.init 2000 Fun.id)))
          in
          Alcotest.(check int) (nm ^ " sum") (2000 * 1999 / 2) got;
          Alcotest.(check int)
            (nm ^ " zero spawns") 0
            (Wool.Stats.count (Wool.Stats.aggregate pool) Spawn)))
    Test_util.all_modes

(* The steal_pressure hook itself: false on an idle single worker, and
   eventually true on a direct-mode pool whose thieves are starving (the
   failed-probe counters advance, which is exactly the hunger signal the
   lazy splitter polls). *)
let test_steal_pressure_single_worker_false () =
  List.iter
    (fun (nm, mode) ->
      Test_util.with_pool ~workers:1 ~mode (fun pool ->
          Wool.run pool (fun ctx ->
              for _ = 1 to 50 do
                if Wool.steal_pressure ctx then
                  Alcotest.failf "%s: pressure on a 1-worker pool" nm
              done)))
    Test_util.all_modes

let test_steal_pressure_hungry_thieves () =
  Test_util.with_pool ~workers:3 ~mode:Wool.Private (fun pool ->
      let saw = Wool.run pool (fun ctx ->
          (* hold the only descriptor; idle thieves probe and fail, which
             must register as pressure at the owner within the timeout *)
          Test_util.spin_until ~timeout_ns:2_000_000_000 (fun () ->
              Wool.steal_pressure ctx))
      in
      Alcotest.(check bool) "pressure observed with starving thieves" true saw)

(* ---- parallel_* helper regressions (this PR's bugfixes) ---- *)

(* grain <= 0 used to recurse forever (hi - lo never shrank below a
   non-positive grain); it must be rejected up front. *)
let test_grain_validation () =
  Test_util.with_pool ~workers:1 (fun pool ->
      Wool.run pool (fun ctx ->
          let expect_invalid name f =
            match f () with
            | _ -> Alcotest.failf "%s accepted grain <= 0" name
            | exception Invalid_argument _ -> ()
          in
          expect_invalid "parallel_for grain:0" (fun () ->
              Wool.parallel_for ctx ~grain:0 0 10 ignore);
          expect_invalid "parallel_for grain:-1" (fun () ->
              Wool.parallel_for ctx ~grain:(-1) 0 10 ignore);
          expect_invalid "parallel_reduce grain:0" (fun () ->
              Wool.parallel_reduce ctx ~grain:0 0 10 ~neutral:0 Fun.id ( + ));
          expect_invalid "parallel_reduce grain:-1" (fun () ->
              Wool.parallel_reduce ctx ~grain:(-1) 0 10 ~neutral:0 Fun.id ( + ));
          expect_invalid "parallel_map grain:0" (fun () ->
              Wool.parallel_map ctx ~grain:0 Fun.id [| 1; 2 |]);
          expect_invalid "parallel_init grain:0" (fun () ->
              Wool.parallel_init ctx ~grain:0 2 Fun.id);
          (* the empty range still short-circuits before validation could
             matter, but a bad grain is a caller bug regardless of range *)
          expect_invalid "parallel_for empty range bad grain" (fun () ->
              Wool.parallel_for ctx ~grain:0 5 5 ignore)))

(* Element 0 runs inside the task tree: with a grain covering the whole
   tail, parallel_map/init spawn exactly one task — the element-0 seed —
   and the trace/oracle accounting shows it. *)
let test_element0_accounting () =
  Test_util.with_pool ~workers:1 (fun pool ->
      let n = 64 in
      let check_spawns name expected f =
        Wool.Stats.reset pool;
        f ();
        Alcotest.(check int)
          (name ^ " spawns") expected
          (Wool.Stats.count (Wool.Stats.aggregate pool) Spawn)
      in
      check_spawns "map grain>=n" 1 (fun () ->
          let got =
            Wool.run pool (fun ctx ->
                Wool.parallel_map ctx ~grain:n (fun x -> x * 2)
                  (Array.init n Fun.id))
          in
          Alcotest.(check (array int)) "map result"
            (Array.init n (fun i -> i * 2))
            got);
      check_spawns "init grain>=n" 1 (fun () ->
          let got =
            Wool.run pool (fun ctx ->
                Wool.parallel_init ctx ~grain:n n (fun i -> i + 100))
          in
          Alcotest.(check (array int)) "init result"
            (Array.init n (fun i -> i + 100))
            got);
      check_spawns "map singleton" 1 (fun () ->
          let got =
            Wool.run pool (fun ctx -> Wool.parallel_map ctx Fun.id [| 9 |])
          in
          Alcotest.(check (array int)) "singleton result" [| 9 |] got);
      check_spawns "map empty" 0 (fun () ->
          let got =
            Wool.run pool (fun ctx -> Wool.parallel_map ctx Fun.id [||])
          in
          Alcotest.(check (array int)) "empty result" [||] got);
      (* element 0 is a real task: it sees the trace stream like any
         other spawn (1 spawn event, 1 matching join) *)
      ())

(* Element 0 goes through the same unwind path as the rest of the tree:
   an exception from f xs.(0) propagates out of the combinator. *)
let test_element0_unwind () =
  Test_util.with_pool ~workers:1 (fun pool ->
      match
        Wool.run pool (fun ctx ->
            Wool.parallel_map ctx
              (fun x -> if x = 0 then failwith "boom" else x)
              [| 0; 1; 2 |])
      with
      | _ -> Alcotest.fail "element-0 exception swallowed"
      | exception Failure msg ->
          Alcotest.(check string) "exception payload" "boom" msg)

(* The purity pin (mirrors the submit-layer Dup-drain test): force the
   submitted body to execute twice, with a rope reduction inside it. The
   body observably runs twice, the computed value is identical both
   times, the ticket settles once, and the pool invariants stay green.
   Swept over every mode. *)
let test_duplicated_body () =
  List.iter
    (fun (nm, mode) ->
      let plan =
        Wool.Fault.Plan.make ~name:"dup-drain" ~seed:7
          [
            {
              Wool.Fault.Plan.site = Wool.Fault.Site.Drain;
              kind = Wool.Fault.Kind.Dup;
              rate = 1.0;
              max_fires = 8;
            };
          ]
      in
      let pool = Test_util.create ~workers:1 ~mode ~faults:plan () in
      let runs = Atomic.make 0 in
      let n = 500 in
      let expected = n * (n - 1) / 2 in
      let tk =
        Wool.Submit.submit pool (fun ctx ->
            Atomic.incr runs;
            R.reduce ctx ~split:(R.Lazy_split 16) ~neutral:0 ~combine:( + )
              Fun.id
              (R.build ctx n Fun.id))
      in
      Alcotest.(check int) (nm ^ " run alongside") 0
        (Wool.run pool (fun _ctx -> 0));
      Alcotest.(check int) (nm ^ " body executed twice") 2 (Atomic.get runs);
      Alcotest.(check int) (nm ^ " result settles once, correctly") expected
        (Wool.Submit.await tk);
      Alcotest.(check (list string)) (nm ^ " invariants") []
        (Wool.Invariants.check pool);
      Wool.shutdown pool)
    Test_util.all_modes

(* Every rope leaf body runs exactly once on a contended pool, in every
   mode: occurrence counters at 1, value exact. *)
let test_exactly_once_coverage () =
  List.iter
    (fun (nm, mode) ->
      Test_util.with_pool ~workers:4 ~mode (fun pool ->
          let n = 2000 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          let data = Array.init n (fun i -> i * 13 mod 257) in
          let got =
            Wool.run pool (fun ctx ->
                R.reduce ctx ~split:(R.Lazy_split 4) ~neutral:0 ~combine:( + )
                  Fun.id
                  (R.build ctx ~split:(R.Lazy_split 4) n (fun i ->
                       Atomic.incr hits.(i);
                       data.(i))))
          in
          Alcotest.(check int) (nm ^ " exact sum")
            (Array.fold_left ( + ) 0 data)
            got;
          Array.iteri
            (fun i c ->
              if Atomic.get c <> 1 then
                Alcotest.failf "%s: element %d initialised %d times" nm i
                  (Atomic.get c))
            hits))
    Test_util.all_modes

(* ---- qcheck properties (private mode; the mode sweep above covers the
   rest) ---- *)

let qcheck_pool f =
  Test_util.with_pool ~workers:2 (fun pool -> Wool.run pool f)

let arb_input =
  QCheck.pair
    QCheck.(list_of_size (Gen.int_range 0 300) small_signed_int)
    (QCheck.make
       QCheck.Gen.(
         map2
           (fun lazy_ c -> if lazy_ then R.Lazy_split c else R.Eager c)
           bool (int_range 1 40)))

let qcheck_map =
  QCheck.Test.make ~name:"rope map = Array.map" ~count:30 arb_input
    (fun (xs, split) ->
      let arr = Array.of_list xs in
      qcheck_pool (fun ctx ->
          R.to_array (R.map ctx ~split (fun x -> x - 7) (R.of_array ~leaf:8 arr)))
      = Array.map (fun x -> x - 7) arr)

let qcheck_reduce =
  QCheck.Test.make ~name:"rope reduce = fold_left" ~count:30 arb_input
    (fun (xs, split) ->
      let arr = Array.of_list xs in
      qcheck_pool (fun ctx ->
          R.reduce ctx ~split ~neutral:0 ~combine:( + ) Fun.id
            (R.of_array ~leaf:8 arr))
      = Array.fold_left ( + ) 0 arr)

let qcheck_filter =
  QCheck.Test.make ~name:"rope filter = List.filter" ~count:30 arb_input
    (fun (xs, split) ->
      let keep x = x mod 3 = 0 in
      qcheck_pool (fun ctx ->
          R.to_list (R.filter ctx ~split keep (R.of_list xs)))
      = List.filter keep xs)

let qcheck_scan =
  QCheck.Test.make ~name:"rope scan = running prefix" ~count:30 arb_input
    (fun (xs, split) ->
      let expected =
        List.rev
          (snd
             (List.fold_left
                (fun (acc, out) x -> (acc + x, (acc + x) :: out))
                (0, []) xs))
      in
      qcheck_pool (fun ctx ->
          R.to_list
            (R.scan ctx ~split ~neutral:0 ~combine:( + ) (R.of_list xs)))
      = expected)

let qcheck_append =
  QCheck.Test.make ~name:"rope append = list append (and stays balanced)"
    ~count:50
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 400) small_signed_int)
        (list_of_size (Gen.int_range 0 400) small_signed_int))
    (fun (xs, ys) ->
      let t = R.append (R.of_list xs) (R.of_list ys) in
      R.to_list t = xs @ ys
      && R.depth t <= ilog2 (max 1 (R.length t)) + 2)

let suite =
  [
    ( "ropes",
      [
        Alcotest.test_case "of_array round trip" `Quick
          test_of_array_round_trip;
        Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
        Alcotest.test_case "get" `Quick test_get;
        Alcotest.test_case "list round trip" `Quick test_list_round_trip;
        Alcotest.test_case "append" `Quick test_append_correct;
        Alcotest.test_case "append merges small" `Quick
          test_append_small_merges;
        Alcotest.test_case "append skew rebalances" `Quick
          test_append_skew_stays_balanced;
        Alcotest.test_case "ops vs oracles all modes" `Slow
          test_ops_match_oracles;
        Alcotest.test_case "scan non-commutative" `Quick
          test_scan_non_commutative;
        Alcotest.test_case "empty and singleton" `Quick
          test_ops_empty_and_singleton;
        Alcotest.test_case "bad split rejected" `Quick test_bad_split_rejected;
        Alcotest.test_case "lazy 1-worker zero spawns" `Quick
          test_lazy_one_worker_zero_spawns;
        Alcotest.test_case "pressure false on 1 worker" `Quick
          test_steal_pressure_single_worker_false;
        Alcotest.test_case "pressure under starving thieves" `Quick
          test_steal_pressure_hungry_thieves;
        QCheck_alcotest.to_alcotest qcheck_map;
        QCheck_alcotest.to_alcotest qcheck_reduce;
        QCheck_alcotest.to_alcotest qcheck_filter;
        QCheck_alcotest.to_alcotest qcheck_scan;
        QCheck_alcotest.to_alcotest qcheck_append;
      ] );
    ( "parallel helpers",
      [
        Alcotest.test_case "grain validation" `Quick test_grain_validation;
        Alcotest.test_case "element-0 accounting" `Quick
          test_element0_accounting;
        Alcotest.test_case "element-0 unwind" `Quick test_element0_unwind;
        Alcotest.test_case "duplicated body (Dup drain)" `Quick
          test_duplicated_body;
        Alcotest.test_case "exactly-once coverage" `Slow
          test_exactly_once_coverage;
      ] );
  ]
