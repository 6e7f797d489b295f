module Ld = Wool_deque.Locked_deque

let mk ?(capacity = 64) () = Ld.create ~capacity ~dummy:(-1) ()

let test_lifo_pop () =
  let d = mk () in
  List.iter (Ld.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop 3" (Some 3) (Ld.pop d);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ld.pop d);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ld.pop d);
  Alcotest.(check (option int)) "empty" None (Ld.pop d)

let test_steal_fifo () =
  let d = mk () in
  List.iter (Ld.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "oldest" (Some 1) (Ld.steal d);
  Alcotest.(check (option int)) "next" (Some 2) (Ld.steal d)

let test_steal_empty () =
  Alcotest.(check (option int)) "empty" None (Ld.steal (mk ()))

let test_pop_steal_meet () =
  let d = mk () in
  Ld.push d 1;
  Ld.push d 2;
  Alcotest.(check (option int)) "steal 1" (Some 1) (Ld.steal d);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ld.pop d);
  Alcotest.(check (option int)) "pop empty" None (Ld.pop d);
  Alcotest.(check (option int)) "steal empty" None (Ld.steal d)

let test_overflow () =
  let d = mk ~capacity:2 () in
  Ld.push d 1;
  Ld.push d 2;
  Alcotest.check_raises "overflow" Wool_deque.Task_state.Pool_overflow
    (fun () -> Ld.push d 3);
  (* the raise must precede any mutation: the deque still works *)
  Alcotest.(check (option int)) "pops survive overflow" (Some 2) (Ld.pop d)

(* Steals must not use up capacity: once thieves have emptied the deque,
   the owner's failed pop rewinds it, and a full capacity of pushes fits
   again. *)
let test_steals_keep_capacity () =
  let d = mk ~capacity:2 () in
  for round = 1 to 3 do
    Ld.push d round;
    Ld.push d (-round);
    Alcotest.(check (option int)) "steal" (Some round) (Ld.steal d);
    Alcotest.(check (option int)) "steal" (Some (-round))
      (Ld.steal d);
    Alcotest.(check (option int)) "pop finds it empty" None (Ld.pop d)
  done;
  Ld.push d 4;
  Ld.push d 5;
  Alcotest.(check (option int)) "pop 5" (Some 5) (Ld.pop d);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Ld.pop d)

let test_create_validation () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Locked_deque.create: capacity") (fun () ->
      ignore (Ld.create ~capacity:0 ~dummy:0 ()))

let test_size () =
  let d = mk () in
  Alcotest.(check int) "empty" 0 (Ld.size d);
  Ld.push d 1;
  Ld.push d 2;
  Alcotest.(check int) "two" 2 (Ld.size d);
  ignore (Ld.steal d);
  Alcotest.(check int) "one" 1 (Ld.size d)

let qcheck_owner_model =
  QCheck.Test.make ~name:"locked deque owner ops = list stack" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (option small_nat))
    (fun ops ->
      let d = mk () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              if List.length !model >= 64 then true
              else begin
                Ld.push d v;
                model := v :: !model;
                true
              end
          | None -> (
              match (!model, Ld.pop d) with
              | [], None -> true
              | x :: rest, Some y ->
                  model := rest;
                  x = y
              | [], Some _ | _ :: _, None -> false))
        ops)

let test_concurrent_sum () =
  let d = mk ~capacity:65536 () in
  let n = 20_000 in
  let stolen_sum = Atomic.make 0 in
  let stop = Atomic.make false in
  let thieves =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let fails = ref 0 in
            while not (Atomic.get stop) do
              match Ld.steal d with
              | Some v ->
                  ignore (Atomic.fetch_and_add stolen_sum v : int);
                  fails := 0
              | None ->
                  incr fails;
                  Domain.cpu_relax ();
                  if !fails land 1023 = 0 then Unix.sleepf 0.0002
            done))
  in
  let popped_sum = ref 0 in
  for i = 1 to n do
    Ld.push d i;
    if i land 1 = 0 then begin
      match Ld.pop d with Some v -> popped_sum := !popped_sum + v | None -> ()
    end
  done;
  let rec drain () =
    match Ld.pop d with
    | Some v ->
        popped_sum := !popped_sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  List.iter Domain.join thieves;
  drain ();
  let expected = n * (n + 1) / 2 in
  Alcotest.(check int) "sum conserved" expected
    (!popped_sum + Atomic.get stolen_sum)

let suite =
  [
    ( "locked_deque",
      [
        Alcotest.test_case "LIFO pop" `Quick test_lifo_pop;
        Alcotest.test_case "steal FIFO" `Quick test_steal_fifo;
        Alcotest.test_case "steal empty" `Quick test_steal_empty;
        Alcotest.test_case "pop/steal meet" `Quick test_pop_steal_meet;
        Alcotest.test_case "overflow" `Quick test_overflow;
        Alcotest.test_case "steals keep capacity" `Quick test_steals_keep_capacity;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "size" `Quick test_size;
        QCheck_alcotest.to_alcotest qcheck_owner_model;
        Alcotest.test_case "concurrent sum" `Slow test_concurrent_sum;
      ] );
  ]
