module Ds = Wool_deque.Direct_stack

let mk ?(publicity = Ds.All_public) ?(capacity = 1024) () =
  Ds.create ~capacity ~publicity ~dummy:(-1) ()

(* An owner join: the joined payload, read before the pop, and the pop's
   join code. *)
let pop t =
  let v = Ds.top_payload t in
  (v, Ds.pop t)

let inlined code = code < Ds.stolen_finished

(* The inlined payload and whether its join was public. *)
let expect_task what t =
  let v, code = pop t in
  if not (inlined code) then Alcotest.failf "%s: expected inlined task" what;
  (v, code = Ds.inline_public)

(* The stack counts only committed steals; window changes are counted
   through its hooks, as the pool counts them. *)
let window_hooks t =
  let publishes = ref 0 and privatizes = ref 0 in
  Ds.set_event_hooks t
    ~on_publish:(fun () -> incr publishes)
    ~on_privatize:(fun () -> incr privatizes);
  (publishes, privatizes)

(* The thief's id (or [Ds.stolen_finished]) and the descriptor index. *)
let expect_stolen what t =
  let code = Ds.pop t in
  if inlined code then Alcotest.failf "%s: expected stolen" what;
  (code, Ds.depth t)

let test_lifo () =
  let t = mk () in
  List.iter (Ds.push t) [ 1; 2; 3 ];
  Alcotest.(check int) "depth" 3 (Ds.depth t);
  Alcotest.(check int) "pop 3" 3 (fst (expect_task "a" t));
  Alcotest.(check int) "pop 2" 2 (fst (expect_task "b" t));
  Alcotest.(check int) "pop 1" 1 (fst (expect_task "c" t));
  Alcotest.(check int) "empty" 0 (Ds.depth t)

let test_pop_empty () =
  let t = mk () in
  Alcotest.check_raises "empty pop"
    (Invalid_argument "Direct_stack.pop: empty stack") (fun () ->
      ignore (Ds.pop t));
  Alcotest.check_raises "empty top_payload"
    (Invalid_argument "Direct_stack.top_payload: empty stack") (fun () ->
      ignore (Ds.top_payload t))

let test_all_private_never_stealable () =
  let t = mk ~publicity:Ds.All_private () in
  List.iter (Ds.push t) [ 1; 2; 3 ];
  (match Ds.steal t ~thief:1 with
  | Ds.Fail -> ()
  | Ds.Stolen_task _ | Ds.Backoff -> Alcotest.fail "stole a private task");
  let _, public = expect_task "pop" t in
  Alcotest.(check bool) "private join" false public;
  Alcotest.(check int) "no steal committed" 0 (Ds.steal_count t)

let test_all_public_steal_order () =
  let t = mk () in
  List.iter (Ds.push t) [ 10; 20; 30 ];
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (v, idx) ->
      Alcotest.(check int) "oldest first" 10 v;
      Alcotest.(check int) "index 0" 0 idx
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal failed");
  match Ds.steal t ~thief:2 with
  | Ds.Stolen_task (v, _) -> Alcotest.(check int) "next oldest" 20 v
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "second steal failed"

let test_steal_empty () =
  let t = mk () in
  match Ds.steal t ~thief:1 with
  | Ds.Fail -> ()
  | Ds.Stolen_task _ | Ds.Backoff -> Alcotest.fail "stole from empty stack"

let test_join_with_completed_thief () =
  let t = mk () in
  Ds.push t 7;
  let idx =
    match Ds.steal t ~thief:4 with
    | Ds.Stolen_task (v, idx) ->
        Alcotest.(check int) "payload" 7 v;
        idx
    | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal failed"
  in
  Ds.complete_steal t ~index:idx;
  let thief, index = expect_stolen "join" t in
  (* The thief already finished, so the owner's exchange saw DONE. *)
  Alcotest.(check int) "already done" Ds.stolen_finished thief;
  Ds.reclaim t ~index;
  Alcotest.(check int) "reclaimed" 0 (Ds.depth t);
  Alcotest.(check int) "bot reset" 0 (Ds.bot_index t)

let test_join_with_running_thief () =
  let t = mk () in
  Ds.push t 9;
  let idx =
    match Ds.steal t ~thief:2 with
    | Ds.Stolen_task (_, idx) -> idx
    | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal failed"
  in
  let thief, index = expect_stolen "join" t in
  Alcotest.(check int) "thief id" 2 thief;
  Alcotest.(check bool) "not done yet" false (Ds.stolen_done t ~index);
  (* the owner runs another task while it waits (a leapfrog): that
     task's spawn must not land on the slot the thief's DONE targets *)
  Ds.hold t ~index;
  Ds.complete_steal t ~index:idx;
  Ds.push t 10;
  Alcotest.(check int) "spawn above the held slot" 10
    (fst (expect_task "nested join" t));
  Alcotest.(check bool) "done now" true (Ds.stolen_done t ~index);
  Ds.reclaim t ~index;
  Alcotest.(check (list string)) "quiescent" [] (Ds.check_quiescent t)

let test_reuse_after_reclaim () =
  let t = mk () in
  Ds.push t 1;
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (_, idx) -> Ds.complete_steal t ~index:idx
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal failed");
  let _, index = expect_stolen "join" t in
  Ds.reclaim t ~index;
  (* the slot must be cleanly reusable *)
  Ds.push t 2;
  Alcotest.(check int) "reused slot" 2 (fst (expect_task "pop" t))

let test_adaptive_window_and_trip_wire () =
  let t = mk ~publicity:(Ds.Adaptive 2) () in
  let publishes, _ = window_hooks t in
  for i = 1 to 5 do
    Ds.push t i
  done;
  (* only the bottom two descriptors are public *)
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (v, idx) ->
      Alcotest.(check int) "first public" 1 v;
      Ds.complete_steal t ~index:idx
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal 1 failed");
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (v, idx) ->
      Alcotest.(check int) "trip wire slot" 2 v;
      Ds.complete_steal t ~index:idx
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal 2 failed");
  (* the window is exhausted until the owner services the trip wire *)
  (match Ds.steal t ~thief:1 with
  | Ds.Fail -> ()
  | Ds.Stolen_task _ | Ds.Backoff -> Alcotest.fail "stole beyond the window");
  (* any owner operation services the publish request *)
  Ds.push t 6;
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (v, idx) ->
      Alcotest.(check int) "published" 3 v;
      Ds.complete_steal t ~index:idx
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "steal after publish failed");
  Alcotest.(check int) "publish events" 1 !publishes;
  Alcotest.(check int) "steals" 3 (Ds.steal_count t)

(* Regression: a privatize that fires when the shrunken window holds no
   live public descriptor at or above [bot] used to leave the trip index
   below [bot] — a wire no steal could ever reach, so publication stopped
   forever and the whole stack became unstealable. The fix disarms the
   wire and re-arms it on the next push, which publishes itself. *)
let test_trip_wire_survives_privatize_below_bot () =
  let t = mk ~capacity:64 ~publicity:(Ds.Adaptive 20) () in
  let publishes, privatizes = window_hooks t in
  (* 21 pushes: slots 0..19 public (window 20, trip at 19), 20 private *)
  for i = 0 to 20 do
    Ds.push t i
  done;
  (* a thief drains the four bottom slots; bot ends at 4, well below the
     trip wire at 19, which therefore never fires *)
  for expect = 0 to 3 do
    match Ds.steal t ~thief:1 with
    | Ds.Stolen_task (v, idx) ->
        Alcotest.(check int) "steal order" expect v;
        Ds.complete_steal t ~index:idx
    | Ds.Fail | Ds.Backoff -> Alcotest.failf "steal of slot %d failed" expect
  done;
  (* owner: one private inline (slot 20), then 16 consecutive public
     inlines (19 down to 4) — exactly the privatize threshold, reached on
     the inline of slot 4 where [max bot i = bot]: nothing public at or
     above [bot] is left alive *)
  for i = 20 downto 4 do
    Alcotest.(check int) "inline order" i (fst (expect_task "inline" t))
  done;
  Alcotest.(check int) "privatized once" 1 !privatizes;
  (* the next spawn must be stealable again: the re-armed wire publishes
     the push itself (before the fix this task stayed private and the
     stack was permanently unstealable) *)
  Ds.push t 100;
  (match Ds.steal t ~thief:2 with
  | Ds.Stolen_task (v, idx) ->
      Alcotest.(check int) "re-armed push stolen" 100 v;
      Ds.complete_steal t ~index:idx
  | Ds.Fail | Ds.Backoff -> Alcotest.fail "re-armed push was not stealable");
  (* that steal took the wire descriptor, so the owner's next operation
     services a publish request: the window is live again *)
  let _, index = expect_stolen "re-armed wire join" t in
  Ds.reclaim t ~index;
  Alcotest.(check int) "wire re-armed and sprung" 1 !publishes;
  (* drain the thief-1 steals and verify a clean shutdown state *)
  while Ds.depth t > 0 do
    let _, index = expect_stolen "drain" t in
    Ds.reclaim t ~index
  done;
  Alcotest.(check (list string)) "quiescent" [] (Ds.check_quiescent t)

let test_privatize_after_public_inlines () =
  let t = mk ~publicity:(Ds.Adaptive 2) () in
  let _, privatizes = window_hooks t in
  (* Inline public tasks repeatedly with no stealing: the owner should
     eventually privatise the window. *)
  let private_joins = ref 0 in
  for _ = 1 to 20 do
    Ds.push t 1;
    Ds.push t 2;
    for _ = 1 to 2 do
      if Ds.pop t = Ds.inline_private then incr private_joins
    done
  done;
  Alcotest.(check bool) "privatized" true (!privatizes >= 1);
  Alcotest.(check bool) "some private joins happened" true (!private_joins > 0)

(* [pop]'s codes tell the owner how each join went; the stack's one
   count is the committed steals in its packed [bot] word, which a
   reclaim keeps. *)
let test_join_codes_and_steal_count () =
  let t = mk () in
  List.iter (Ds.push t) [ 1; 2; 3 ];
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (1, 0) -> Ds.complete_steal t ~index:0
  | _ -> Alcotest.fail "expected to steal task 1 at slot 0");
  Alcotest.(check int) "one steal" 1 (Ds.steal_count t);
  Alcotest.(check int) "join 3" Ds.inline_public (Ds.pop t);
  Alcotest.(check int) "join 2" Ds.inline_public (Ds.pop t);
  Alcotest.(check int) "join 1" Ds.stolen_finished (Ds.pop t);
  Ds.reclaim t ~index:0;
  Alcotest.(check int) "reclaim keeps the count" 1 (Ds.steal_count t);
  Alcotest.(check (list string)) "quiescent" [] (Ds.check_quiescent t)

let test_capacity_overflow () =
  let t = mk ~capacity:4 () in
  for i = 1 to 4 do
    Ds.push t i
  done;
  Alcotest.check_raises "overflow" Ds.Pool_overflow (fun () -> Ds.push t 5);
  (* the raise must precede any mutation: the stack still works *)
  Alcotest.(check int) "depth untouched" 4 (Ds.depth t);
  for i = 4 downto 1 do
    Alcotest.(check int) "pops survive overflow" i
      (fst (expect_task "pop after overflow" t))
  done;
  Alcotest.(check (list string)) "quiescent after overflow" []
    (Ds.check_quiescent t)

let test_create_validation () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Direct_stack.create: capacity") (fun () ->
      ignore (Ds.create ~capacity:0 ~dummy:0 ()));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Direct_stack.create: adaptive window must be positive")
    (fun () -> ignore (Ds.create ~publicity:(Ds.Adaptive 0) ~dummy:0 ()))

(* Model-based sequential property: with no thieves, the direct stack is a
   plain LIFO stack. *)
let qcheck_sequential_stack_model =
  QCheck.Test.make ~name:"direct stack = LIFO stack (owner only)" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 100) (option small_nat))
    (fun ops ->
      (* Some n = push n; None = pop *)
      let t = mk ~capacity:256 () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              if List.length !model >= 256 then true
              else begin
                Ds.push t v;
                model := v :: !model;
                true
              end
          | None -> (
              match !model with
              | [] -> true (* skip: popping empty is a precondition violation *)
              | expect :: rest -> (
                  model := rest;
                  let v, code = pop t in
                  inlined code && v = expect)))
        ops)

(* The same owner-only list-model property under Adaptive publicity (the
   mirror of test_chase_lev's qcheck_owner_model): runs of public inlines
   privatise the window and re-arm the trip wire mid-sequence, none of
   which may disturb LIFO semantics. *)
let qcheck_owner_model =
  QCheck.Test.make ~name:"direct stack adaptive = LIFO stack (owner only)"
    ~count:300
    QCheck.(
      pair (int_range 1 8) (list_of_size (Gen.int_range 0 200) (option small_nat)))
    (fun (window, ops) ->
      let t = mk ~publicity:(Ds.Adaptive window) ~capacity:256 () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              if List.length !model >= 256 then true
              else begin
                Ds.push t v;
                model := v :: !model;
                true
              end
          | None -> (
              match !model with
              | [] -> true
              | expect :: rest -> (
                  model := rest;
                  let v, code = pop t in
                  inlined code && v = expect)))
        ops
      && (Ds.check_quiescent t = []) = (!model = []))

(* Deterministic regression for the delayed-CAS / recycled-descriptor
   back-off (paper §III-A): thief 2 reads TASK at slot 1 and stalls in
   the Pre_cas window while the owner inlines that task, joins a
   finished steal, reclaims [bot] below the thief's probe point and
   refills both slots. The delayed CAS then wins against the *recycled*
   descriptor; the bot re-read must restore the state word and return
   [Backoff], leaving the refilled tasks stealable bottom-up. *)
let test_recycled_descriptor_backoff () =
  let t = mk ~capacity:4 () in
  Ds.push t 10;
  Ds.push t 11;
  (match Ds.steal t ~thief:1 with
  | Ds.Stolen_task (10, 0) -> Ds.complete_steal t ~index:0
  | _ -> Alcotest.fail "expected to steal task 10 at slot 0");
  let interfere = function
    | Ds.Pre_cas ->
        let v, public = expect_task "inline 11" t in
        Alcotest.(check int) "inlined 11" 11 v;
        Alcotest.(check bool) "was public" true public;
        let thief, index = expect_stolen "join 10" t in
        Alcotest.(check int) "thief already done" Ds.stolen_finished thief;
        Ds.reclaim t ~index;
        Ds.push t 12;
        Ds.push t 13 (* recycles slot 1's descriptor *);
        false
    | Ds.Post_cas | Ds.Trip -> false
  in
  (match Ds.steal t ~interfere ~thief:2 with
  | Ds.Backoff -> ()
  | Ds.Stolen_task (v, _) -> Alcotest.failf "stole recycled task %d" v
  | Ds.Fail -> Alcotest.fail "expected Backoff, got Fail");
  Alcotest.(check int) "a back-off commits no steal" 1 (Ds.steal_count t);
  (* the restore left both refilled tasks live and bottom-most-first *)
  (match Ds.steal t ~thief:2 with
  | Ds.Stolen_task (12, 0) -> Ds.complete_steal t ~index:0
  | _ -> Alcotest.fail "expected 12 at slot 0 after back-off");
  (match Ds.steal t ~thief:2 with
  | Ds.Stolen_task (13, 1) -> Ds.complete_steal t ~index:1
  | _ -> Alcotest.fail "expected 13 at slot 1 after back-off");
  let _, index = expect_stolen "join 13" t in
  Ds.reclaim t ~index;
  let _, index = expect_stolen "join 12" t in
  Ds.reclaim t ~index;
  Alcotest.(check (list string)) "quiescent" [] (Ds.check_quiescent t)

(* Concurrency soak: one owner, several thief domains hammering the same
   stack. Every task must execute exactly once, whether inlined or stolen,
   and the paper's claim that ABA back-offs are rare gets checked. *)
let concurrent_soak ~publicity ~thieves ~batches ~batch () =
  let total = batches * batch in
  let executed = Array.init total (fun _ -> Atomic.make 0) in
  let t =
    Ds.create ~capacity:(batch + 8) ~publicity ~dummy:(-1) ()
  in
  let stop = Atomic.make false and backoffs = Atomic.make 0 in
  let thief_domains =
    List.init thieves (fun k ->
        Domain.spawn (fun () ->
            let tid = k + 1 in
            let fails = ref 0 in
            while not (Atomic.get stop) do
              match Ds.steal t ~thief:tid with
              | Ds.Stolen_task (payload, index) ->
                  Atomic.incr executed.(payload);
                  Ds.complete_steal t ~index;
                  fails := 0
              | (Ds.Fail | Ds.Backoff) as r ->
                  if r = Ds.Backoff then Atomic.incr backoffs;
                  incr fails;
                  Domain.cpu_relax ();
                  if !fails land 1023 = 0 then Unix.sleepf 0.0002
            done))
  in
  let inlines = ref 0 and joins_stolen = ref 0 in
  for b = 0 to batches - 1 do
    for i = 0 to batch - 1 do
      Ds.push t ((b * batch) + i)
    done;
    for _ = 1 to batch do
      let payload, code = pop t in
      if inlined code then begin
        incr inlines;
        Atomic.incr executed.(payload)
      end
      else begin
        incr joins_stolen;
        let index = Ds.depth t in
        if code >= 0 then begin
          let spins = ref 0 in
          while not (Ds.stolen_done t ~index) do
            Domain.cpu_relax ();
            incr spins;
            if !spins land 4095 = 0 then Unix.sleepf 0.0002
          done
        end;
        Ds.reclaim t ~index
      end
    done
  done;
  Atomic.set stop true;
  List.iter Domain.join thief_domains;
  Array.iteri
    (fun i c ->
      let n = Atomic.get c in
      if n <> 1 then Alcotest.failf "task %d executed %d times" i n)
    executed;
  let steals = Ds.steal_count t and backoffs = Atomic.get backoffs in
  Alcotest.(check int) "all tasks accounted" total (!inlines + !joins_stolen);
  Alcotest.(check int) "steals equal stolen joins" !joins_stolen steals;
  (* §III-A: "back offs are infrequent, always below 1% of successful
     steals" — allow slack for the scheduling noise of a time-shared box. *)
  if steals > 100 then
    Alcotest.(check bool)
      (Printf.sprintf "backoffs rare (%d/%d)" backoffs steals)
      true
      (float_of_int backoffs <= 0.05 *. float_of_int steals)

let test_soak_public () =
  concurrent_soak ~publicity:Ds.All_public ~thieves:3 ~batches:400 ~batch:32 ()

let test_soak_adaptive () =
  concurrent_soak ~publicity:(Ds.Adaptive 2) ~thieves:3 ~batches:400 ~batch:32 ()

let test_soak_private () =
  concurrent_soak ~publicity:Ds.All_private ~thieves:2 ~batches:100 ~batch:32 ()

let suite =
  [
    ( "direct_stack",
      [
        Alcotest.test_case "LIFO" `Quick test_lifo;
        Alcotest.test_case "pop empty" `Quick test_pop_empty;
        Alcotest.test_case "all-private unstealable" `Quick
          test_all_private_never_stealable;
        Alcotest.test_case "steal order" `Quick test_all_public_steal_order;
        Alcotest.test_case "steal empty" `Quick test_steal_empty;
        Alcotest.test_case "join after thief done" `Quick
          test_join_with_completed_thief;
        Alcotest.test_case "join with running thief" `Quick
          test_join_with_running_thief;
        Alcotest.test_case "slot reuse" `Quick test_reuse_after_reclaim;
        Alcotest.test_case "trip wire" `Quick test_adaptive_window_and_trip_wire;
        Alcotest.test_case "trip wire survives privatize below bot" `Quick
          test_trip_wire_survives_privatize_below_bot;
        Alcotest.test_case "privatize" `Quick test_privatize_after_public_inlines;
        Alcotest.test_case "join codes and steal count" `Quick
          test_join_codes_and_steal_count;
        Alcotest.test_case "overflow" `Quick test_capacity_overflow;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        QCheck_alcotest.to_alcotest qcheck_sequential_stack_model;
        QCheck_alcotest.to_alcotest qcheck_owner_model;
        Alcotest.test_case "recycled-descriptor back-off" `Quick
          test_recycled_descriptor_backoff;
        Alcotest.test_case "soak all-public" `Slow test_soak_public;
        Alcotest.test_case "soak adaptive" `Slow test_soak_adaptive;
        Alcotest.test_case "soak all-private" `Slow test_soak_private;
      ] );
  ]
