(* Allocation gate for the spawn/join fast path: the minor words one
   [Wool.spawn] + [Wool.join] pair allocates on a 1-worker pool, where
   the join always inlines and every allocation lands on the measuring
   domain, so the count repeats exactly. The body is a closed function,
   so the count is the runtime's own. No mode allocates a descriptor:
   every mode's slot holds the task closure itself, which is the future,
   so a task-specific join allocates nothing. The generic join
   ([Swap_generic]) stores the outcome in its result cell and reads it
   back: the [Ok] (2 words). A body closure capturing one variable, as
   in fib or the benchmark's pair probe, adds 4 words. The queued modes
   (Locked, Clev) publish the slot's index on their deque and run the
   task to its outcome, the [Ok] (2 words). A [Locked] range pops a bare
   index: 2 words. [Chase_lev]'s pop returns the index in a [Some] (2
   more): 4 words.

   A server round trip, [Submit.await (Submit.submit pool body)] with a
   closed body, allocates on the producer's domain only what the
   submission builds: the ticket, the queued job and the admission's
   own words. The await allocates nothing, whichever way it waits: it
   re-reads, naps and blocks through top-level functions of the ticket
   and the cells its unsettled state carries. An await that captured
   the ticket in a closure would add its words to the pin. *)

let body _ = 1
let pairs = 10_000

let words_per_pair ~mode ~publicity =
  Test_util.with_pool ~workers:1 ~mode ~publicity (fun pool ->
      Wool.run pool (fun ctx ->
          let sum = ref 0 in
          let w0 = Gc.minor_words () in
          for _ = 1 to pairs do
            sum := !sum + Wool.join ctx (Wool.spawn ctx body)
          done;
          let w1 = Gc.minor_words () in
          Alcotest.(check int) "results" pairs !sum;
          (w1 -. w0) /. float_of_int pairs))

let test_spawn_join_words () =
  List.iter
    (fun (mode, bound) ->
      List.iter
        (fun publicity ->
          let name =
            Printf.sprintf "%s/%s" (Wool.Mode.name mode)
              (Wool_report.Bench_json.publicity_name publicity)
          in
          let w = words_per_pair ~mode ~publicity in
          if w > float_of_int bound +. 0.01 then
            Alcotest.failf "%s: %.2f minor words per spawn+join pair (bound %d)"
              name w bound)
        [ Wool.All_private; Wool.All_public; Wool.Adaptive 4 ])
    [
      (Wool.Private, 0);
      (Wool.Swap_generic, 2);
      (Wool.Locked, 2);
      (Wool.Clev, 4);
    ]

let trips = 2_000
let round_trip_words = 15

let test_round_trip_words () =
  Test_util.with_pool ~workers:1 ~server:true (fun pool ->
      let trip () = Wool.Submit.await (Wool.Submit.submit pool body) in
      for _ = 1 to 100 do
        ignore (trip () : int)
      done;
      let sum = ref 0 in
      let w0 = Gc.minor_words () in
      for _ = 1 to trips do
        sum := !sum + trip ()
      done;
      let w1 = Gc.minor_words () in
      Alcotest.(check int) "results" trips !sum;
      let w = (w1 -. w0) /. float_of_int trips in
      if Float.abs (w -. float_of_int round_trip_words) > 0.01 then
        Alcotest.failf "%.2f minor words per round trip (pinned at %d)" w
          round_trip_words)

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "spawn+join words" `Quick test_spawn_join_words;
        Alcotest.test_case "server round trip words" `Quick
          test_round_trip_words;
      ] );
  ]
