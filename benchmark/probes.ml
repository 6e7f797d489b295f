(* Per-layer probes of a traced run: one microbenchmark per layer, each
   a time per operation (median over repetitions) and, where the layer
   allocates, minor words per operation. Words are read on the measuring
   domain of a 1-worker pool, where every allocation of the operation
   happens, so they repeat exactly between invocations. *)

open Measure

let pool ?publicity ?server workers =
  Wool.create ~config:(Wool.Config.make ~workers ?publicity ?server ()) ()

let finish what p =
  invariants what p;
  Wool.shutdown p

(* [reps] timed batches of [iters] operations; [batch] runs one batch on
   the measuring domain and returns (elapsed ns, minor words). *)
let per_op ~reps ~iters batch =
  let times = samples () and words = samples () in
  for _ = 1 to reps do
    let ns, w = batch () in
    add times (float_of_int ns /. float_of_int iters);
    add words (w /. float_of_int iters)
  done;
  (median (values times), median (values words), reps)

(* A [Wool.spawn] + [Wool.join] pair at 1 worker, the join inlining. *)
let pair ?publicity ~iters ~reps () =
  let p = pool ?publicity 1 in
  let r =
    per_op ~reps ~iters (fun () ->
        Wool.run p (fun ctx ->
            let sink = ref 0 in
            let w0 = Gc.minor_words () in
            let t0 = now_ns () in
            for i = 1 to iters do
              let f = Wool.spawn ctx (fun _ -> i) in
              sink := !sink + Wool.join ctx f
            done;
            let t1 = now_ns () in
            let w1 = Gc.minor_words () in
            check "pair probe" (!sink = iters * (iters + 1) / 2);
            (t1 - t0, w1 -. w0)))
  in
  finish "pair probe" p;
  r

(* A trivial [Wool.run] on a 1-worker pool: the fixed cost per solve. *)
let run ~iters ~reps =
  let p = pool 1 in
  let r =
    per_op ~reps ~iters (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        for _ = 1 to iters do
          Wool.run p (fun _ -> ())
        done;
        let t1 = now_ns () in
        (t1 - t0, Gc.minor_words () -. w0))
  in
  finish "run probe" p;
  r

(* Closed-loop submit + await of a trivial job on an idle 1-worker
   server pool, as the producer sees it. *)
let round_trip ~iters ~reps =
  let p = pool ~server:true 1 in
  let r =
    per_op ~reps ~iters (fun () ->
        let ok = ref 0 in
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        for i = 1 to iters do
          ok := !ok + Wool.Submit.await (Wool.Submit.submit p (fun _ -> i)) - i
        done;
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        check "round-trip probe" (!ok = 0);
        (t1 - t0, w1 -. w0))
  in
  finish "round-trip probe" p;
  r

(* [Wool.steal_pressure] polled in a loop, as a rope leaf polls it. *)
let pressure_poll ~iters ~reps =
  let p = pool 1 in
  let r =
    per_op ~reps ~iters (fun () ->
        Wool.run p (fun ctx ->
            let hits = ref 0 in
            let w0 = Gc.minor_words () in
            let t0 = now_ns () in
            for _ = 1 to iters do
              if Wool.steal_pressure ctx then incr hits
            done;
            let t1 = now_ns () in
            let w1 = Gc.minor_words () in
            check "pressure probe" (!hits = 0);
            (t1 - t0, w1 -. w0)))
  in
  finish "pressure probe" p;
  r

(* [Wool.create] + [Wool.shutdown] of a 2-worker pool, in ms. *)
let pool_create ~reps =
  let t = samples () in
  for _ = 1 to reps do
    let t0 = now_ns () in
    let p = pool 2 in
    Wool.shutdown p;
    add t (ms (now_ns () - t0))
  done;
  median (values t)

(* The duration an empty span reads: the part of a clock read that falls
   inside every span. *)
let empty_span ~iters =
  Spans.clear ();
  for _ = 1 to iters do
    Spans.span Empty 0 (fun () -> ())
  done;
  let d = trimmed_mean (Spans.durations Empty) in
  Spans.clear ();
  d

(* The ledger: does spawns x (spawn + join cost) account for what fib at
   1 worker spends over its serial reference? Alternates serial, untraced
   and traced 1-worker solves until [deadline]; the spans of the traced
   ones give the per-spawn costs, each less an empty span. The closure is
   that product over the overhead; its distance from 1 is the ledger's
   gap. *)
let ledger ~n ~deadline ~empty =
  let p = pool 1 in
  let expect = Kernels.fib_serial n in
  let serial = samples () and w1 = samples () in
  let spawns = ref 0. in
  Spans.clear ();
  repeat_until deadline (fun _ ->
      let t0 = now_ns () in
      check "ledger serial" (Kernels.fib_serial n = expect);
      let t1 = now_ns () in
      Wool.Stats.reset p;
      check "ledger solve" (Wool.run p (fun ctx -> Kernels.fib ctx n) = expect);
      let t2 = now_ns () in
      spawns := counter (Wool.Stats.aggregate p) "spawns";
      check "ledger traced solve"
        (Wool.run p (fun ctx -> Kernels.fib_traced ctx n) = expect);
      add serial (float_of_int (t1 - t0));
      add w1 (float_of_int (t2 - t1)));
  finish "ledger" p;
  let spawn_ns = trimmed_mean (Spans.durations Spawn) -. empty in
  let join_ns = trimmed_mean (Spans.durations Join) -. empty in
  let overhead_ns = median (values w1) -. median (values serial) in
  let closure = !spawns *. (spawn_ns +. join_ns) /. overhead_ns in
  Spans.clear ();
  (spawn_ns, join_ns, closure)

let all ~tiny ~ledger_deadline =
  let scale k = if tiny then max 1 (k / 50) else k in
  let reps = if tiny then 2 else 5 in
  let empty = empty_span ~iters:(scale 20_000) in
  let sj_ns, sj_w, n1 = pair ~iters:(scale 200_000) ~reps () in
  let pr_ns, pr_w, n2 = pair ~publicity:Wool.All_private ~iters:(scale 200_000) ~reps () in
  let pu_ns, pu_w, n3 = pair ~publicity:Wool.All_public ~iters:(scale 200_000) ~reps () in
  let run_ns, run_w, n4 = run ~iters:(scale 20_000) ~reps in
  let rt_ns, rt_w, n5 = round_trip ~iters:(scale 1_000) ~reps in
  let poll_ns, _, n6 = pressure_poll ~iters:(scale 2_000_000) ~reps in
  let create_ms = pool_create ~reps:5 in
  let spawn_ns, join_ns, closure =
    ledger ~n:(Kernels.fib_size ~tiny) ~deadline:ledger_deadline ~empty
  in
  [
    layer ~n:n1 "pool.spawn_join_ns" "ns" sj_ns;
    layer "pool.spawn_join_words" "words" sj_w;
    layer ~n:n2 "deque.private_pair_ns" "ns" pr_ns;
    layer "deque.private_pair_words" "words" pr_w;
    layer ~n:n3 "deque.public_pair_ns" "ns" pu_ns;
    layer "deque.public_pair_words" "words" pu_w;
    layer ~n:n4 "pool.run_ns" "ns" run_ns;
    layer "pool.run_words" "words" run_w;
    layer ~n:n5 "ingress.round_trip_us" "us" (rt_ns /. 1e3);
    layer "ingress.round_trip_words" "words" rt_w;
    layer ~n:n6 "ropes.pressure_poll_ns" "ns" poll_ns;
    layer ~n:5 "setup.pool_create_ms" "ms" create_ms;
    layer "trace.empty_span_ns" "ns" empty;
    layer "trace.spawn_ns" "ns" spawn_ns;
    layer "trace.join_ns" "ns" join_ns;
    layer "trace.ledger_gap" "ratio" (Float.abs (closure -. 1.));
    extra "trace.ledger_closure" "ratio" closure;
  ]
