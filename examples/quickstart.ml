(* Quickstart: the paper's Figure 2 Fibonacci program on the Wool runtime.

   Usage: dune exec examples/quickstart.exe [-- N [WORKERS]]

   Spawns a task for every couple of additions' worth of work — the extreme
   of fine granularity — and still runs close to the plain recursive
   function thanks to private task descriptors. *)

let rec fib ctx n =
  if n < 2 then n
  else begin
    (* SPAWN: make fib (n-2) available for stealing *)
    let b = Wool.spawn ctx (fun ctx -> fib ctx (n - 2)) in
    (* CALL: ordinary recursive call *)
    let a = fib ctx (n - 1) in
    (* JOIN: inline the task if nobody stole it, else leapfrog *)
    a + Wool.join ctx b
  end

let rec fib_serial n = if n < 2 then n else fib_serial (n - 1) + fib_serial (n - 2)

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 30 in
  let workers =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
    else Domain.recommended_domain_count ()
  in
  let pool = Wool.create ~config:(Wool.Config.make ~workers ()) () in
  let (result, parallel_ns) =
    Wool_util.Clock.time (fun () -> Wool.run pool (fun ctx -> fib ctx n))
  in
  let (expected, serial_ns) = Wool_util.Clock.time (fun () -> fib_serial n) in
  assert (result = expected);
  let s = Wool.Stats.aggregate pool in
  let spawns = Wool.Stats.count s Spawn in
  Printf.printf "fib %d = %d on %d worker(s)\n" n result workers;
  Printf.printf "  parallel: %.3f ms   serial: %.3f ms\n"
    (parallel_ns /. 1e6) (serial_ns /. 1e6);
  Format.printf "  %a@." Wool.Stats.pp s;
  if spawns > 0 then
    Printf.printf "  overhead per task vs a plain call: %.1f ns\n"
      ((parallel_ns -. serial_ns) /. float_of_int spawns);
  Wool.shutdown pool
