(* Wool_policy: the shared steal-policy layer. Exercises the pure
   vocabulary (names, sweep), the per-worker state machines (victim
   selection, idle backoff) for determinism and exact sequences, and the
   Wool.Config plumbing that carries a policy into the real runtime. *)

module Wp = Wool_policy
module Sel = Wool_policy.Selector
module Bo = Wool_policy.Backoff
module Select = Wool_policy.Select
module Rng = Wool_util.Rng

let action =
  let pp fmt = function
    | Bo.Relax -> Format.pp_print_string fmt "Relax"
    | Bo.Yield -> Format.pp_print_string fmt "Yield"
    | Bo.Nap f -> Format.fprintf fmt "Nap %d" f
  in
  Alcotest.testable pp ( = )

(* ---- names ---- *)

let test_selector_names () =
  Alcotest.(check int) "six selectors" 6 (List.length Sel.all);
  List.iter
    (fun s ->
      match Sel.of_name (Sel.name s) with
      | Some s' -> Alcotest.(check string) "roundtrip" (Sel.name s) (Sel.name s')
      | None -> Alcotest.failf "of_name %S" (Sel.name s))
    Sel.all;
  Alcotest.(check bool) "unknown rejected" true (Sel.of_name "bogus" = None)

let test_backoff_names () =
  List.iter
    (fun b ->
      match Bo.of_name (Bo.name b) with
      | Some b' -> Alcotest.(check string) "roundtrip" (Bo.name b) (Bo.name b')
      | None -> Alcotest.failf "of_name %S" (Bo.name b))
    (Bo.default
     :: Bo.Nap_after 7
     :: Bo.Exponential { streak = 3; max_factor = 128 }
     :: Bo.Yield_then_nap { yields = 0; naps = 5 }
     :: Bo.all);
  Alcotest.(check string) "default is the historical loop" "nap64"
    (Bo.name Bo.default);
  List.iter
    (fun s -> Alcotest.(check bool) s true (Bo.of_name s = None))
    [ "nap0"; "nap"; "expx"; "exp0x4"; "yield9-nap3"; "bogus" ]

let test_policy_names () =
  Alcotest.(check string) "default name" "random/nap64" (Wp.name Wp.default);
  List.iter
    (fun p ->
      match Wp.of_name (Wp.name p) with
      | Some p' -> Alcotest.(check string) "roundtrip" (Wp.name p) (Wp.name p')
      | None -> Alcotest.failf "of_name %S" (Wp.name p))
    (Wp.sweep ())

let test_sweep_grid () =
  let ps = Wp.sweep () in
  Alcotest.(check int) "full grid"
    (List.length Sel.all * List.length Bo.all)
    (List.length ps);
  let names = List.map Wp.name ps in
  Alcotest.(check int) "all distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* selectors vary slowest: the first |Backoff.all| entries share one *)
  (match ps with
  | a :: b :: _ ->
      Alcotest.(check string) "selectors slowest" (Sel.name a.Wp.selector)
        (Sel.name b.Wp.selector)
  | _ -> Alcotest.fail "sweep too short")

(* ---- victim selection ---- *)

let draws selector ~self ~n ~seed ~count =
  let st = Select.make selector ~self () in
  let rng = Rng.make seed in
  List.init count (fun _ -> Select.next st ~rng ~n)

let test_select_deterministic () =
  List.iter
    (fun selector ->
      List.iter
        (fun seed ->
          let a = draws selector ~self:1 ~n:6 ~seed ~count:200 in
          let b = draws selector ~self:1 ~n:6 ~seed ~count:200 in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d reproducible" (Sel.name selector) seed)
            true (a = b);
          List.iter
            (function
              | None -> Alcotest.fail "None with n > 1"
              | Some v ->
                  Alcotest.(check bool) "in range" true (v >= 0 && v < 6);
                  Alcotest.(check bool) "never self" true (v <> 1))
            a)
        [ 1; 42; 1234 ])
    Sel.all

let test_select_singleton () =
  List.iter
    (fun selector ->
      let st = Select.make selector ~self:0 () in
      let rng = Rng.make 9 in
      Alcotest.(check bool)
        (Sel.name selector ^ " alone")
        true
        (Select.next st ~rng ~n:1 = None))
    Sel.all

let test_round_robin_sequence () =
  (* self = 1, n = 4: scan 2, 3, 0, (skip self) 2, 3, 0, ... *)
  let got =
    draws Sel.Round_robin ~self:1 ~n:4 ~seed:5 ~count:7 |> List.filter_map Fun.id
  in
  Alcotest.(check (list int)) "cyclic scan" [ 2; 3; 0; 2; 3; 0; 2 ] got

let test_last_victim_affinity () =
  let st = Select.make Sel.Last_victim ~self:0 () in
  let rng = Rng.make 3 in
  Select.on_success st ~victim:3;
  Alcotest.(check (option int)) "sticks" (Some 3) (Select.next st ~rng ~n:5);
  Alcotest.(check (option int)) "still sticks" (Some 3)
    (Select.next st ~rng ~n:5);
  (* shrunk pool invalidates the affinity *)
  (match Select.next st ~rng ~n:3 with
  | Some v -> Alcotest.(check bool) "fallback in range" true (v = 1 || v = 2)
  | None -> Alcotest.fail "None");
  (* a failed unpinned attempt drops the affinity: with a single other
     worker the random fallback can only return it, so this is exact *)
  let st2 = Select.make Sel.Last_victim ~self:0 () in
  Select.on_success st2 ~victim:1;
  Select.on_failure st2;
  Alcotest.(check (option int)) "dropped after failure -> random" (Some 1)
    (Select.next st2 ~rng ~n:2)

let test_leapfrog_biased_affinity () =
  let st = Select.make Sel.Leapfrog_biased ~self:2 () in
  let rng = Rng.make 3 in
  Select.stolen_by st ~thief:4;
  Alcotest.(check (option int)) "prefers our thief" (Some 4)
    (Select.next st ~rng ~n:6);
  Select.on_failure st;
  (match Select.next st ~rng ~n:6 with
  | Some v -> Alcotest.(check bool) "fallback not pinned" true (v <> 2)
  | None -> Alcotest.fail "None");
  Select.stolen_by st ~thief:(-1);
  let st2 = Select.make Sel.Leapfrog_biased ~self:2 () in
  Select.stolen_by st2 ~thief:(-1);
  match Select.next st2 ~rng ~n:6 with
  | Some v -> Alcotest.(check bool) "negative thief ignored" true (v <> 2)
  | None -> Alcotest.fail "None"

let test_socket_local_prefers_local () =
  (* 8 workers on 2 sockets (0-3 / 4-7): worker 1's picks are mostly
     local, but the 1-in-4 random escape eventually probes remote. *)
  let socket_of wid = wid / 4 in
  let st = Select.make ~socket_of Sel.Socket_local ~self:1 () in
  let rng = Rng.make 11 in
  let local = ref 0 and remote = ref 0 in
  for _ = 1 to 400 do
    match Select.next st ~rng ~n:8 with
    | Some v -> if socket_of v = 0 then incr local else incr remote
    | None -> Alcotest.fail "None"
  done;
  Alcotest.(check bool) "mostly local" true (!local > !remote);
  Alcotest.(check bool) "escapes the socket" true (!remote > 0);
  (* pin the distribution under the seeded rng: a drift in draw order or
     in the local-peer set shows up as a count change here *)
  Alcotest.(check (pair int int)) "2-socket distribution pinned" (345, 55)
    (!local, !remote)

let test_socket_local_trivial_map_is_random () =
  (* Satellite regression: under a trivial map — the default
     [socket_of = fun _ -> 0], or any map that puts everyone on our
     socket — Socket_local must degrade to plain uniform random,
     consuming exactly one draw per probe (no 1-in-4 gate). *)
  let check_matches_random mk_st label =
    List.iter
      (fun seed ->
        let expect =
          draws Sel.Random_victim ~self:2 ~n:6 ~seed ~count:300
        in
        let st = mk_st () in
        let rng = Rng.make seed in
        let got = List.init 300 (fun _ -> Select.next st ~rng ~n:6) in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d = random bit-for-bit" label seed)
          true (expect = got))
      [ 7; 42; 90210 ]
  in
  check_matches_random
    (fun () -> Select.make Sel.Socket_local ~self:2 ())
    "default map";
  check_matches_random
    (fun () -> Select.make ~socket_of:(fun _ -> 3) Sel.Socket_local ~self:2 ())
    "constant map";
  (* an isolated worker (nobody shares its socket) also degrades *)
  check_matches_random
    (fun () ->
      Select.make
        ~socket_of:(fun wid -> if wid = 2 then 1 else 0)
        Sel.Socket_local ~self:2 ())
    "isolated worker"

let test_random_matches_historical_draw () =
  (* The draw-and-shift must consume exactly one rng draw per probe and
     reproduce the historical sequence: k = int rng (n-1), +1 if >= self. *)
  let n = 5 and self = 2 and seed = 77 in
  let expect =
    let rng = Rng.make seed in
    List.init 50 (fun _ ->
        let k = Rng.int rng (n - 1) in
        if k >= self then k + 1 else k)
  in
  let got =
    draws Sel.Random_victim ~self ~n ~seed ~count:50 |> List.filter_map Fun.id
  in
  Alcotest.(check (list int)) "bit-for-bit" expect got

(* ---- hierarchical selection ---- *)

module Topo = Wool_policy.Topology
module Hier = Wool_policy.Hier

let test_hier_names () =
  List.iter
    (fun h ->
      let name = Hier.name h in
      match Hier.of_name name with
      | Some h' -> Alcotest.(check string) "roundtrip" name (Hier.name h')
      | None -> Alcotest.failf "Hier.of_name %S" name)
    [
      Hier.default;
      Hier.auto ~sockets:4 ();
      Hier.auto ~sockets:4 ~smt:2 ();
      Hier.auto ~probes:[| 1; 3 |] ~sockets:2 ();
      Hier.auto ~escalate_pct:[| 0; 100 |] ~sockets:2 ();
      Hier.fixed (Topo.of_spec [| [| 1; 1 |]; [| 2 |] |]);
      Hier.fixed ~probes:[| 5; 5 |] (Topo.make ~sockets:2 ~workers:8 ());
    ];
  Alcotest.(check string) "default spelling" "hier2" (Hier.name Hier.default);
  Alcotest.(check string) "knobs spelled out" "hier4x2:p1.3:e7.9"
    (Hier.name (Hier.auto ~probes:[| 1; 3 |] ~escalate_pct:[| 7; 9 |] ~smt:2
                  ~sockets:4 ()));
  (* selector- and policy-level roundtrips carry the hier grammar *)
  (match Sel.of_name "hier4x2:p1.3:e7.9" with
  | Some s ->
      Alcotest.(check string) "selector roundtrip" "hier4x2:p1.3:e7.9"
        (Sel.name s)
  | None -> Alcotest.fail "selector of_name");
  (match Wp.of_name "hier(2x4+8)/exp16x32" with
  | Some p ->
      Alcotest.(check string) "policy roundtrip" "hier(2x4+8)/exp16x32"
        (Wp.name p)
  | None -> Alcotest.fail "policy of_name");
  List.iter
    (fun s -> Alcotest.(check bool) s true (Hier.of_name s = None))
    [
      "hier"; "hier0"; "hier-2"; "hierx"; "hier2x0"; "hier2:p0.1";
      "hier2:p1"; "hier2:e1.101"; "hier2:q1.2"; "hier()"; "hier(0+4)";
      "random";
    ]

let test_hier_invalid_args () =
  let rejects f = Alcotest.check_raises "rejected"
      (Invalid_argument "") (fun () ->
        try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  rejects (fun () -> ignore (Hier.auto ~sockets:0 ()));
  rejects (fun () -> ignore (Hier.auto ~probes:[| 1 |] ~sockets:2 ()));
  rejects (fun () -> ignore (Hier.auto ~probes:[| 0; 2 |] ~sockets:2 ()));
  rejects (fun () -> ignore (Hier.auto ~escalate_pct:[| 50; 101 |] ~sockets:2 ()));
  rejects (fun () -> ignore (Topo.of_spec [||]));
  rejects (fun () -> ignore (Topo.of_spec [| [||] |]));
  rejects (fun () -> ignore (Topo.of_spec [| [| 1; 0 |] |]));
  rejects (fun () -> ignore (Topo.make ~workers:0 ()))

let test_hier_steal_back () =
  (* a victim whose task was stolen prefers re-stealing from the thief,
     whatever the current probe radius; the hint is try-once (cleared by
     the next unpinned failure) *)
  let h = Hier.auto ~sockets:2 () in
  let st = Select.make (Sel.Hierarchical h) ~self:0 () in
  let rng = Rng.make 4 in
  Select.stolen_by st ~thief:7;
  Alcotest.(check (option int)) "steals back" (Some 7)
    (Select.next st ~rng ~n:8);
  Alcotest.(check (option int)) "still hinted until an outcome" (Some 7)
    (Select.next st ~rng ~n:8);
  Select.on_failure st;
  (match Select.next st ~rng ~n:8 with
  | Some v -> Alcotest.(check bool) "back to ring probing" true (v >= 1 && v < 8)
  | None -> Alcotest.fail "None");
  (* an out-of-range thief (pool shrank) is ignored *)
  let st2 = Select.make (Sel.Hierarchical h) ~self:0 () in
  Select.stolen_by st2 ~thief:9;
  match Select.next st2 ~rng ~n:4 with
  | Some v -> Alcotest.(check bool) "in range" true (v >= 1 && v < 4)
  | None -> Alcotest.fail "None"

let test_hier_escalates_and_resets () =
  (* 8 workers, 2 sockets of 4, no probabilistic escalation: worker 0
     probes sockets-mates only until the probe budget is spent, then the
     whole machine; a success snaps the radius back. *)
  let topo = Topo.make ~sockets:2 ~workers:8 () in
  let h = Hier.fixed ~probes:[| 2; 3 |] ~escalate_pct:[| 0; 0 |] topo in
  let st = Select.make (Sel.Hierarchical h) ~self:0 () in
  let rng = Rng.make 21 in
  let probe () =
    match Select.next st ~rng ~n:8 with
    | Some v -> v
    | None -> Alcotest.fail "None"
  in
  (* smt=1: the core ring is empty, so the radius starts at the socket *)
  for _ = 1 to 3 do
    let v = probe () in
    Alcotest.(check bool) "socket ring first" true (v >= 1 && v <= 3);
    Alcotest.(check (option int)) "radius reported" (Some 2)
      (Select.hier_level st);
    Select.on_failure st
  done;
  (* budget spent: now the machine ring, which includes remote workers *)
  Alcotest.(check (option int)) "escalated to machine" (Some 3)
    (Select.hier_level st);
  let seen_remote = ref false in
  for _ = 1 to 50 do
    if probe () >= 4 then seen_remote := true;
    Select.on_failure st
  done;
  Alcotest.(check bool) "remote victims reachable" true !seen_remote;
  Alcotest.(check (option int)) "stays at machine" (Some 3)
    (Select.hier_level st);
  Select.on_success st ~victim:5;
  Alcotest.(check (option int)) "success snaps back" (Some 2)
    (Select.hier_level st);
  let v = probe () in
  Alcotest.(check bool) "back to the socket ring" true (v >= 1 && v <= 3)

let test_hier_auto_sizes_from_pool () =
  (* Auto spec: the same policy value works at any pool size, and a
     fixed topology sized for another pool falls back to flat random. *)
  let h = Hier.auto ~sockets:2 () in
  List.iter
    (fun n ->
      let st = Select.make (Sel.Hierarchical h) ~self:0 () in
      let rng = Rng.make 13 in
      for _ = 1 to 100 do
        match Select.next st ~rng ~n with
        | Some v -> Alcotest.(check bool) "valid victim" true (v >= 1 && v < n)
        | None -> Alcotest.fail "None"
      done)
    [ 2; 3; 5; 8; 16 ];
  let fixed = Hier.fixed (Topo.make ~sockets:2 ~workers:8 ()) in
  let expect = draws Sel.Random_victim ~self:0 ~n:5 ~seed:31 ~count:100 in
  let got = draws (Sel.Hierarchical fixed) ~self:0 ~n:5 ~seed:31 ~count:100 in
  Alcotest.(check bool) "mismatched fixed topology = flat random" true
    (expect = got)

(* ---- backoff ---- *)

let test_nap_after () =
  let st = Bo.make (Bo.Nap_after 3) in
  Alcotest.(check (list action)) "nap every 3rd failure"
    [ Bo.Relax; Bo.Relax; Bo.Nap 1; Bo.Relax; Bo.Relax; Bo.Nap 1 ]
    (List.init 6 (fun _ -> Bo.on_failure st));
  Bo.on_success st;
  Alcotest.(check action) "streak reset" Bo.Relax (Bo.on_failure st)

let test_exponential () =
  let st = Bo.make (Bo.Exponential { streak = 2; max_factor = 8 }) in
  let naps =
    List.init 12 (fun _ -> Bo.on_failure st)
    |> List.filter_map (function Bo.Nap f -> Some f | _ -> None)
  in
  Alcotest.(check (list int)) "doubles then caps" [ 1; 2; 4; 8; 8; 8 ] naps;
  Bo.on_success st;
  let naps' =
    List.init 4 (fun _ -> Bo.on_failure st)
    |> List.filter_map (function Bo.Nap f -> Some f | _ -> None)
  in
  Alcotest.(check (list int)) "ladder resets on success" [ 1; 2 ] naps'

let test_yield_then_nap () =
  let st = Bo.make (Bo.Yield_then_nap { yields = 2; naps = 4 }) in
  Alcotest.(check (list action)) "spin, yield, nap"
    [ Bo.Relax; Bo.Yield; Bo.Yield; Bo.Nap 1; Bo.Relax; Bo.Yield ]
    (List.init 6 (fun _ -> Bo.on_failure st))

(* ---- Config plumbing ---- *)

module C = Wool.Config

let test_config_policy_roundtrip () =
  let p = Wp.make ~selector:Sel.Round_robin ~backoff:(Bo.Nap_after 8) () in
  let c = C.make ~policy:p () in
  Alcotest.(check string) "selector lands" "round-robin"
    (Sel.name c.C.policy.Wp.selector);
  Alcotest.(check string) "backoff lands" "nap8"
    (Bo.name c.C.policy.Wp.backoff);
  Alcotest.(check string) "read back as one value" (Wp.name p)
    (Wp.name c.C.policy)

let test_config_default_is_historical () =
  Alcotest.(check string) "default policy" "random/nap64"
    (Wp.name C.default.C.policy)

let suite =
  [
    ( "policy",
      [
        Alcotest.test_case "selector names" `Quick test_selector_names;
        Alcotest.test_case "backoff names" `Quick test_backoff_names;
        Alcotest.test_case "policy names" `Quick test_policy_names;
        Alcotest.test_case "sweep grid" `Quick test_sweep_grid;
        Alcotest.test_case "select deterministic" `Quick
          test_select_deterministic;
        Alcotest.test_case "select singleton" `Quick test_select_singleton;
        Alcotest.test_case "round-robin sequence" `Quick
          test_round_robin_sequence;
        Alcotest.test_case "last-victim affinity" `Quick
          test_last_victim_affinity;
        Alcotest.test_case "leapfrog-biased affinity" `Quick
          test_leapfrog_biased_affinity;
        Alcotest.test_case "socket-local locality" `Quick
          test_socket_local_prefers_local;
        Alcotest.test_case "socket-local trivial map is random" `Quick
          test_socket_local_trivial_map_is_random;
        Alcotest.test_case "random historical draws" `Quick
          test_random_matches_historical_draw;
        Alcotest.test_case "hier names" `Quick test_hier_names;
        Alcotest.test_case "hier invalid args" `Quick test_hier_invalid_args;
        Alcotest.test_case "hier steal-back" `Quick test_hier_steal_back;
        Alcotest.test_case "hier escalation" `Quick
          test_hier_escalates_and_resets;
        Alcotest.test_case "hier auto sizing" `Quick
          test_hier_auto_sizes_from_pool;
        Alcotest.test_case "nap-after backoff" `Quick test_nap_after;
        Alcotest.test_case "exponential backoff" `Quick test_exponential;
        Alcotest.test_case "yield-then-nap backoff" `Quick
          test_yield_then_nap;
        Alcotest.test_case "config policy roundtrip" `Quick
          test_config_policy_roundtrip;
        Alcotest.test_case "config default historical" `Quick
          test_config_default_is_historical;
      ] );
  ]
