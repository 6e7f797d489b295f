module Clock = Wool_util.Clock
module Stats = Wool_util.Stats
module F = Wool_workloads.Fib

type row = {
  version : string;
  seconds : float;
  ns_per_task : float;
  cycles_per_task : float;
}

(* The paper's ladder: the rows are named after Table II, so this list
   stays hand-written — the constructors themselves come from the
   canonical {!Wool.Mode}. Table II gives "task specific join" and
   "private tasks (no private)" the same 19 cycles, and here they are one
   pool configuration, so one row measures both. *)
let ladder =
  [
    ("base (locked)", Some (Wool.Locked, Wool.All_public));
    ("synchronize on task", Some (Wool.Swap_generic, Wool.All_public));
    ( "task specific join = private tasks (no private)",
      Some (Wool.Private, Wool.All_public) );
    ("private tasks (all private)", Some (Wool.Private, Wool.All_private));
    ("serial", None);
  ]

let compute ?(n = 30) ?(repeats = 3) () =
  let expected = F.serial n in
  let serial_ns =
    Stats.median (Clock.time_ns ~warmup:1 ~repeats (fun () ->
        assert (F.serial n = expected)))
  in
  let measure (mode, publicity) =
    let pool =
      Wool.create
        ~config:(Wool.Config.make ~workers:1 ~mode ~publicity ())
        ()
    in
    Fun.protect
      ~finally:(fun () -> Wool.shutdown pool)
      (fun () ->
        let ns =
          Stats.median
            (Clock.time_ns ~warmup:1 ~repeats (fun () ->
                 assert (Wool.run pool (fun ctx -> F.wool ctx n) = expected)))
        in
        let spawns = (Wool.Stats.aggregate pool).Wool.Pool.spawns in
        let runs = repeats + 1 in
        (ns, spawns / runs))
  in
  List.map
    (fun (version, config) ->
      match config with
      | None ->
          { version; seconds = serial_ns *. 1e-9; ns_per_task = 0.0;
            cycles_per_task = 0.0 }
      | Some config ->
          let ns, n_tasks = measure config in
          let per_task = (ns -. serial_ns) /. float_of_int (max 1 n_tasks) in
          {
            version;
            seconds = ns *. 1e-9;
            ns_per_task = per_task;
            cycles_per_task = Clock.to_cycles per_task;
          })
    ladder

let run () =
  print_endline "== Table II: optimizing inlined tasks (real runtime, 1 worker) ==";
  Printf.printf "(cycle scale: %.2f cycles/ns; set WOOL_GHZ to your clock)\n"
    (Clock.ghz ());
  let t =
    Wool_util.Table.create
      ~header:[ "version"; "time (s)"; "overhead (ns/task)"; "overhead (cyc)" ]
      ()
  in
  List.iter
    (fun r ->
      Wool_util.Table.add_row t
        [
          r.version;
          Wool_util.Table.cell_f ~dec:4 r.seconds;
          Wool_util.Table.cell_f ~dec:1 r.ns_per_task;
          Wool_util.Table.cell_f ~dec:1 r.cycles_per_task;
        ])
    (compute ());
  Wool_util.Table.print t
