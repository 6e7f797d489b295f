(* Disabled-path cost of the fault hooks and the watchdog ("woolbench
   hooks"): fib wall time with hooks compiled out of the run ([faults =
   None]), hooks live with an empty plan ([Some Plan.none]), and a no-op
   watchdog sampling alongside. Reports the minimum over [reps] runs
   each — the noise floor of a shared box is one-sided, so the min
   tracks the code cost where a median still soaks up scheduler
   interference. *)

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
  let time_config label config =
    let pool = Wool.create ~config () in
    (* warm-up run to fault in domains and code paths *)
    ignore (Wool.run pool (fun ctx -> fib_task ctx 20) : int);
    let best = ref infinity in
    for _ = 1 to reps do
      let v, ns =
        Clock.time (fun () -> Wool.run pool (fun ctx -> fib_task ctx arg))
      in
      ignore (Sys.opaque_identity v : int);
      if ns < !best then best := ns
    done;
    Wool.shutdown pool;
    (label, !best)
  in
  let base = time_config "faults off" (Wool.Config.make ~workers ()) in
  let empty =
    time_config "faults on, empty plan"
      (Wool.Config.make ~workers ~faults:Wool_fault.Plan.none ())
  in
  let watched =
    time_config "watchdog on (1s threshold)"
      (Wool.Config.make ~workers ~watchdog_interval_ns:100_000_000
         ~watchdog_stalls:10 ())
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "disabled-path overhead: fib(%d), %d workers, min of \
                         %d" arg workers reps)
      ~header:[ "configuration"; "ms"; "vs off" ]
      ()
  in
  let _, base_ns = base in
  List.iter
    (fun (label, ns) ->
      Table.add_row tbl
        [
          label;
          Table.cell_f ~dec:2 (ns /. 1e6);
          Printf.sprintf "%+.1f%%" ((ns /. base_ns -. 1.) *. 100.);
        ])
    [ base; empty; watched ];
  Table.print tbl
