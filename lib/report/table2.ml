module Clock = Wool_util.Clock
module Stats = Wool_util.Stats
module Spec = Exp_common.Spec
module Ca = Wool_cactus.Cactus

type row = {
  version : string;
  seconds : float;
  ns_per_task : float;
  cycles_per_task : float;
}

(* The paper's ladder over the benchmark's single-worker fib cells,
   keyed by (mode, publicity) as {!Bench_json} labels them. The rows
   are named after Table II; it gives "task specific join" and "private
   tasks (no private)" the same 19 cycles, and here they are one pool
   configuration, so one cell measures both. *)
let ladder =
  [
    ("base (locked)", "locked", "default");
    ("synchronize on task", "swap_generic", "default");
    ("task specific join = private tasks (no private)", "private", "all-public");
    ("private tasks (all private)", "private", "all-private");
  ]

let row version ~serial_ns ~ns ~spawns =
  let per_task = (ns -. serial_ns) /. float_of_int (max 1 spawns) in
  {
    version;
    seconds = ns *. 1e-9;
    ns_per_task = per_task;
    cycles_per_task = Clock.to_cycles per_task;
  }

(* Steal-parent fib, measured as a benchmark cell is: a fresh 1-worker
   pool per repeat, after one untimed warm-up, the run timed, the spawns
   of the last repeat. *)
let steal_parent ~n ~expected ~repeats =
  let sample _ =
    Ca.with_pool ~workers:1 (fun pool ->
        let got, ns =
          Clock.time (fun () -> Ca.run pool (fun ctx -> Check_fuzz.cactus_fib ctx n))
        in
        if got <> expected then
          failwith
            (Printf.sprintf "table2: steal-parent fib(%d) = %d, serial says %d"
               n got expected);
        (ns, (Ca.stats pool).Ca.spawns))
  in
  ignore (sample () : float * int);
  let samples = Array.init repeats sample in
  (Stats.median (Array.map fst samples), snd samples.(repeats - 1))

let compute ?(size = Spec.Std) ?(repeats = 3) () =
  let report =
    Bench_json.measure ~size ~workers:[ 1 ] ~repeats ~warmup:1
      ~mode_filter:[ Wool.Locked; Wool.Swap_generic; Wool.Private ]
      ~date:"" [ "fib" ]
  in
  let cell mode publicity =
    List.find
      (fun (r : Bench_json.run) -> r.mode = mode && r.publicity = publicity)
      report.runs
  in
  let serial_ns = (cell "locked" "default").serial_ns.median in
  let wool_rows =
    List.map
      (fun (version, mode, publicity) ->
        let r = cell mode publicity in
        if not r.ok then
          failwith
            (Printf.sprintf "table2: %s disagreed with serial %s" version r.descr);
        row version ~serial_ns ~ns:r.parallel_ns.median ~spawns:r.spawns)
      ladder
  in
  let n = Spec.fib_n size in
  let ns, spawns =
    steal_parent ~n ~expected:((Spec.find ~size "fib").serial ()) ~repeats
  in
  wool_rows
  @ [
      row "steal-parent (effects)" ~serial_ns ~ns ~spawns;
      { version = "serial"; seconds = serial_ns *. 1e-9; ns_per_task = 0.0;
        cycles_per_task = 0.0 };
    ]

let run () =
  print_endline "== Table II: optimizing inlined tasks (real runtime, 1 worker) ==";
  Printf.printf "(cycle scale: %.2f cycles/ns; set WOOL_GHZ to your clock)\n"
    (Clock.ghz ());
  let t =
    Wool_util.Table.create
      ~header:[ "version"; "time (ms)"; "overhead (ns/task)"; "overhead (cyc)" ]
      ()
  in
  List.iter
    (fun r ->
      Wool_util.Table.add_row t
        [
          r.version;
          Wool_util.Table.cell_f ~dec:3 (r.seconds *. 1e3);
          Wool_util.Table.cell_f ~dec:1 r.ns_per_task;
          Wool_util.Table.cell_f ~dec:1 r.cycles_per_task;
        ])
    (compute ());
  Wool_util.Table.print t
