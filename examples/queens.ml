(* N-queens on the Wool runtime: an irregular search tree whose subtree
   sizes are unpredictable — the situation (sec. II of the paper) where
   automatic granularity control matters most.

   Usage: dune exec examples/queens.exe [-- N [WORKERS]] *)

module Nq = Wool_workloads.Nqueens

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 11 in
  let workers =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
    else Domain.recommended_domain_count ()
  in
  let (serial, serial_ns) = Wool_util.Clock.time (fun () -> Nq.serial n) in
  Wool.with_pool ~config:(Wool.Config.make ~workers ()) (fun pool ->
      let (parallel, par_ns) =
        Wool_util.Clock.time (fun () -> Wool.run pool (fun ctx -> Nq.wool ctx n))
      in
      assert (serial = parallel);
      Printf.printf "%d-queens: %d solutions\n" n parallel;
      Printf.printf "serial %.2f ms, parallel %.2f ms on %d worker(s)\n"
        (serial_ns /. 1e6) (par_ns /. 1e6) workers;
      let s = Wool.Stats.aggregate pool in
      Printf.printf "spawns=%d inlined(private)=%d steals=%d\n"
        (Wool.Stats.count s Spawn)
        (Wool.Stats.count s Inline_private)
        (Wool.Stats.count s Steal_ok))
