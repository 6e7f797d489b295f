(* Dense matrix multiply with the outermost loop as a task tree (the
   paper's mm benchmark), checked against the serial product.

   Usage: dune exec examples/matmul.exe [-- N [WORKERS]] *)

module Mm = Wool_workloads.Mm

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 128 in
  let workers =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
    else Domain.recommended_domain_count ()
  in
  let rng = Wool_util.Rng.make 2024 in
  let a = Mm.random_matrix rng n and b = Mm.random_matrix rng n in
  let (serial, serial_ns) = Wool_util.Clock.time (fun () -> Mm.serial a b) in
  Wool.with_pool ~config:(Wool.Config.make ~workers ()) (fun pool ->
      let (parallel, par_ns) =
        Wool_util.Clock.time (fun () -> Wool.run pool (fun ctx -> Mm.wool ctx a b))
      in
      if not (Mm.equal serial parallel) then failwith "parallel result differs!";
      let s = Wool.Stats.aggregate pool in
      Printf.printf "mm %dx%d on %d worker(s): results match\n" n n workers;
      Printf.printf "  serial %.2f ms, parallel %.2f ms (%.2fx)\n"
        (serial_ns /. 1e6) (par_ns /. 1e6) (serial_ns /. par_ns);
      Printf.printf "  %d row tasks spawned, %d stolen\n"
        (Wool.Stats.count s Spawn) (Wool.Stats.count s Steal_ok))
