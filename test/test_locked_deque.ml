module Ld = Wool_deque.Locked_deque

let range = Alcotest.(pair int int)

let pushed n =
  let d = Ld.create () in
  for _ = 1 to n do
    Ld.push d
  done;
  d

let test_lifo_pop () =
  let d = pushed 3 in
  Alcotest.(check int) "pop 2" 2 (Ld.pop d);
  Alcotest.(check int) "pop 1" 1 (Ld.pop d);
  Alcotest.(check int) "pop 0" 0 (Ld.pop d);
  Alcotest.(check int) "empty" (-1) (Ld.pop d)

let test_steal_fifo () =
  let d = pushed 3 in
  Alcotest.(check int) "oldest" 0 (Ld.steal d);
  Alcotest.(check int) "next" 1 (Ld.steal d)

let test_steal_empty () =
  Alcotest.(check int) "empty" (-1) (Ld.steal (Ld.create ()))

let test_pop_steal_meet () =
  let d = pushed 2 in
  Alcotest.(check int) "steal 0" 0 (Ld.steal d);
  Alcotest.(check int) "pop 1" 1 (Ld.pop d);
  Alcotest.(check int) "pop empty" (-1) (Ld.pop d);
  Alcotest.(check int) "steal empty" (-1) (Ld.steal d)

(* Thieves took every index: the owner's pop finds the range empty and
   leaves it where it is, above the stolen slots, as a join that waits
   out a thief needs it. *)
let test_empty_pop_unchanged () =
  let d = pushed 2 in
  Alcotest.(check int) "steal 0" 0 (Ld.steal d);
  Alcotest.(check int) "steal 1" 1 (Ld.steal d);
  Alcotest.(check int) "pop empty" (-1) (Ld.pop d);
  Alcotest.check range "range unchanged" (2, 2) (Ld.range d);
  Alcotest.(check int) "pop empty again" (-1) (Ld.pop d);
  Alcotest.check range "range still unchanged" (2, 2) (Ld.range d)

(* The stolen join's tail: the rewind puts the range back at the
   released slot, and the next push publishes that slot again. *)
let test_rewind_then_push () =
  let d = pushed 2 in
  Alcotest.(check int) "steal 0" 0 (Ld.steal d);
  Alcotest.(check int) "steal 1" 1 (Ld.steal d);
  Ld.rewind d 1;
  Alcotest.check range "rewound" (1, 1) (Ld.range d);
  Ld.push d;
  Alcotest.(check int) "size" 1 (Ld.size d);
  Alcotest.(check int) "pop the released index" 1 (Ld.pop d);
  Ld.rewind d 0;
  Ld.push d;
  Alcotest.(check int) "steal the rewound index" 0 (Ld.steal d)

let test_size () =
  let d = Ld.create () in
  Alcotest.(check int) "empty" 0 (Ld.size d);
  Ld.push d;
  Ld.push d;
  Alcotest.(check int) "two" 2 (Ld.size d);
  ignore (Ld.steal d : int);
  Alcotest.(check int) "one" 1 (Ld.size d)

(* Owner pushes ([true]) and pops ([false]) against a stack of the
   indices pushed: the [k]th open push publishes index [k]. *)
let qcheck_owner_model =
  QCheck.Test.make ~name:"locked deque owner ops = list stack" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) bool)
    (fun ops ->
      let d = Ld.create () in
      let model = ref [] in
      List.for_all
        (fun push ->
          if push then begin
            model := List.length !model :: !model;
            Ld.push d;
            true
          end
          else
            match (!model, Ld.pop d) with
            | [], -1 -> true
            | x :: rest, y ->
                model := rest;
                x = y
            | [], _ -> false)
        ops
      && Ld.range d = (0, List.length !model))

(* The pool's protocol against two thieves: the owner keeps the depth
   of a stack whose every index it pushes, pops its newest index back,
   or, when a thief took it, rewinds the range to it (the thief has
   already finished). Every pushed index is taken exactly once, by the
   owner or by a thief, and the range ends at [0, 0). *)
let test_concurrent_sum () =
  let d = Ld.create () in
  let n = 20_000 in
  let stolen_sum = Atomic.make 0 and stolen = Atomic.make 0 in
  let stop = Atomic.make false in
  let thieves =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let fails = ref 0 in
            while not (Atomic.get stop) do
              match Ld.steal d with
              | -1 ->
                  incr fails;
                  Domain.cpu_relax ();
                  if !fails land 1023 = 0 then Unix.sleepf 0.0002
              | i ->
                  ignore (Atomic.fetch_and_add stolen_sum i : int);
                  Atomic.incr stolen;
                  fails := 0
            done))
  in
  let depth = ref 0 and pushed_sum = ref 0 in
  let popped_sum = ref 0 and popped = ref 0 in
  let push () =
    pushed_sum := !pushed_sum + !depth;
    incr depth;
    Ld.push d
  in
  let pop () =
    decr depth;
    match Ld.pop d with
    | -1 -> Ld.rewind d !depth
    | i ->
        Alcotest.(check int) "the newest index" !depth i;
        popped_sum := !popped_sum + i;
        incr popped
  in
  for i = 1 to n do
    push ();
    if i land 1 = 0 then pop ()
  done;
  while !depth > 0 do
    pop ()
  done;
  Atomic.set stop true;
  List.iter Domain.join thieves;
  Alcotest.check range "range at the empty stack" (0, 0) (Ld.range d);
  Alcotest.(check int) "each index taken once" n (!popped + Atomic.get stolen);
  Alcotest.(check int) "sum conserved" !pushed_sum
    (!popped_sum + Atomic.get stolen_sum)

let suite =
  [
    ( "locked_deque",
      [
        Alcotest.test_case "LIFO pop" `Quick test_lifo_pop;
        Alcotest.test_case "steal FIFO" `Quick test_steal_fifo;
        Alcotest.test_case "steal empty" `Quick test_steal_empty;
        Alcotest.test_case "pop/steal meet" `Quick test_pop_steal_meet;
        Alcotest.test_case "empty pop leaves the range" `Quick
          test_empty_pop_unchanged;
        Alcotest.test_case "rewind then push" `Quick test_rewind_then_push;
        Alcotest.test_case "size" `Quick test_size;
        QCheck_alcotest.to_alcotest qcheck_owner_model;
        Alcotest.test_case "concurrent sum" `Slow test_concurrent_sum;
      ] );
  ]
