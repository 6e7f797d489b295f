(* Disabled-path cost of the fault hooks and the watchdog ("woolbench
   hooks"): fib wall time with hooks compiled out of the run ([faults =
   None]), hooks live with an empty plan ([Some Plan.none]), and a no-op
   watchdog sampling alongside. Reports the minimum over [reps] runs
   each — the noise floor of a shared box is one-sided, so the min
   tracks the code cost where a median still soaks up scheduler
   interference. Each run gets a fresh pool, and the configurations
   take turns: a 2-worker pool is fast or slow from its creation on, so
   one pool per row would time the pool, not the hooks. *)

module Table = Wool_util.Table
module Clock = Wool_util.Clock

(* Two, the benchmark's worker limit: on a 2-vCPU host more domains are
   time-sliced, and the minimum then reads scheduling, not hook cost. *)
let workers = 2
let arg = 30
let reps = 9

let rec fib_task ctx n =
  if n < 2 then n
  else begin
    let a = Wool.spawn ctx (fun ctx -> fib_task ctx (n - 1)) in
    let b = Wool.call ctx (fun ctx -> fib_task ctx (n - 2)) in
    a |> Wool.join ctx |> ( + ) b
  end

let run () =
  let configs =
    [
      ("faults off", Wool.Config.make ~workers ());
      ( "faults on, empty plan",
        Wool.Config.make ~workers ~faults:Wool_fault.Plan.none () );
      ( "watchdog on (1s threshold)",
        Wool.Config.make ~workers ~watchdog_interval_ns:100_000_000
          ~watchdog_stalls:10 () );
    ]
  in
  let time_once config =
    Wool.with_pool ~config (fun pool ->
        (* warm-up run to fault in domains and code paths *)
        ignore (Wool.run pool (fun ctx -> fib_task ctx 20) : int);
        let v, ns =
          Clock.time (fun () -> Wool.run pool (fun ctx -> fib_task ctx arg))
        in
        ignore (Sys.opaque_identity v : int);
        ns)
  in
  let best = Array.make (List.length configs) infinity in
  for _ = 1 to reps do
    List.iteri
      (fun i (_, config) -> best.(i) <- Float.min best.(i) (time_once config))
      configs
  done;
  let rows = List.mapi (fun i (label, _) -> (label, best.(i))) configs in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "disabled-path overhead: fib(%d), %d workers, min of \
                         %d" arg workers reps)
      ~header:[ "configuration"; "ms"; "vs off" ]
      ()
  in
  let base_ns = best.(0) in
  List.iter
    (fun (label, ns) ->
      Table.add_row tbl
        [
          label;
          Table.cell_f ~dec:2 (ns /. 1e6);
          Printf.sprintf "%+.1f%%" ((ns /. base_ns -. 1.) *. 100.);
        ])
    rows;
  Table.print tbl
