(* Task-parallel sparse Cholesky factorisation on quadtree matrices (the
   paper's cholesky benchmark, after the Cilk-5 original).

   Usage: dune exec examples/sparse_cholesky.exe [-- N NZ [WORKERS]] *)

module Ch = Wool_workloads.Cholesky

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 250 in
  let nz = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1000 in
  let workers =
    if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3)
    else Domain.recommended_domain_count ()
  in
  let rng = Wool_util.Rng.make 7 in
  let a, size = Ch.random_spd rng ~n ~nz in
  Printf.printf "random SPD %dx%d (padded to %d), %d stored nonzeros\n" n n size
    (Ch.nonzeros a);
  let (l_serial, serial_ns) = Wool_util.Clock.time (fun () -> Ch.serial_factor a size) in
  Wool.with_pool ~config:(Wool.Config.make ~workers ()) (fun pool ->
      let (l, par_ns) =
        Wool_util.Clock.time (fun () ->
            Wool.run pool (fun ctx -> Ch.wool_factor ctx a size))
      in
      Printf.printf "factor: serial %.2f ms, parallel %.2f ms on %d worker(s)\n"
        (serial_ns /. 1e6) (par_ns /. 1e6) workers;
      Printf.printf "L has %d nonzeros (fill-in %+d)\n" (Ch.nonzeros l)
        (Ch.nonzeros l - Ch.nonzeros a);
      if size <= 512 then begin
        let ok = Ch.check_factor ~a ~l size in
        Printf.printf "L * L^T = A: %s\n" (if ok then "verified" else "FAILED");
        if not ok then exit 1;
        ignore l_serial
      end;
      let s = Wool.Stats.aggregate pool in
      Printf.printf "spawns=%d steals=%d leapfrog=%d\n"
        (Wool.Stats.count s Spawn) (Wool.Stats.count s Steal_ok)
        (Wool.Stats.count s Leap_steal))
