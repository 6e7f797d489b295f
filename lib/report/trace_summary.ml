(* Traced-run report: execute a workload on the real runtime with event
   tracing on, export a Chrome trace, and print summary tables next to the
   simulator's event stream for the matching task tree. Both sides speak
   Wool_trace.Event, so the columns line up one-to-one. *)

module Clock = Wool_util.Clock
module Table = Wool_util.Table
module Event = Wool_trace.Event
module Summary = Wool_trace.Summary
module Chrome = Wool_trace.Chrome
module Granularity = Wool_metrics.Granularity

module Spec = Exp_common.Spec

let workloads = Spec.names

(* The measured stream and the runtime's own counters come from the same
   calls, so they must agree key for key unless a ring overflowed; with
   nothing dropped, a disagreement is a bug. *)
let cross_check events (agg : Wool.Stats.t) ~dropped =
  let tbl =
    Table.create ~title:"events vs counters"
      ~header:[ "counter"; "events"; "counters" ]
      ()
  in
  let from_events = Wool.Stats.of_events events in
  let mism = ref [] in
  List.iter
    (fun (name, key) ->
      let ev = Wool.Stats.get from_events key
      and ctr = Wool.Stats.get agg key in
      if ev <> ctr then mism := name :: !mism;
      Table.add_row tbl [ name; Table.cell_i ev; Table.cell_i ctr ])
    Wool.Stats.keys;
  Table.print tbl;
  if !mism <> [] then
    if dropped > 0 then
      Printf.printf
        "note: %d events were dropped to ring overflow, so event counts \
         undershoot the counters; raise ~trace_capacity for an exact \
         stream.\n"
        dropped
    else
      failwith
        ("event counts disagree with stats counters: "
        ^ String.concat ", " (List.rev !mism))

let per_worker_stats_table pool =
  let tbl =
    Table.create ~title:"per-worker stats"
      ~header:("worker" :: List.map fst Wool.Stats.keys)
      ()
  in
  Array.iteri
    (fun i s ->
      Table.add_row tbl
        (string_of_int i
        :: List.map
             (fun (_, key) -> Table.cell_i (Wool.Stats.get s key))
             Wool.Stats.keys))
    (Wool.Stats.per_worker pool);
  Table.print tbl

let side_by_side measured simulated =
  let tbl =
    Table.create ~title:"event counts: measured vs simulated"
      ~header:[ "event"; "measured"; "simulated" ]
      ()
  in
  Array.iter
    (fun tag ->
      let m = Summary.count measured tag
      and s = Summary.count simulated tag in
      if m > 0 || s > 0 then
        Table.add_row tbl
          [ Event.tag_name tag; Table.cell_i m; Table.cell_i s ])
    Event.all_tags;
  Table.print tbl

let print_granularity ~label ~unit (g : Granularity.measured) =
  let cell v =
    if v = infinity then "inf" else Table.cell_f ~dec:1 v
  in
  Printf.printf "%s: G_T = %s %s/task, G_L = %s %s/migration\n" label
    (cell g.Granularity.g_t) unit
    (cell g.Granularity.g_l) unit

let run ?(workers = 4) ?(out = "trace.json") ?(check = false) ?policy name =
  let spec = Spec.find name in
  Printf.printf "== scheduler trace: %s, %d workers ==\n" spec.Spec.descr
    workers;
  let (_ : int), serial_ns = Clock.time spec.Spec.serial in
  let config = Wool.Config.make ~workers ~trace:true ?policy () in
  let pool = Wool.create ~config () in
  Printf.printf "steal policy: %s\n" (Wool_policy.name (Wool.policy pool));
  let (_ : int), par_ns =
    Clock.time (fun () -> Wool.run pool spec.Spec.wool)
  in
  Wool.shutdown pool;
  let events = Wool.trace_events pool in
  let dropped = Wool.trace_dropped pool in
  Printf.printf "serial %.2f ms, traced parallel %.2f ms\n"
    (serial_ns /. 1e6) (par_ns /. 1e6);
  Chrome.write_file out events;
  Printf.printf "wrote %s (%d events, %d dropped)\n" out
    (Array.length events) dropped;
  if check then begin
    match Wool_trace.Json.parse (In_channel.with_open_bin out In_channel.input_all) with
    | Ok _ -> Printf.printf "%s: JSON OK\n" out
    | Error msg -> failwith (Printf.sprintf "%s: invalid JSON: %s" out msg)
  end;
  let summary = Summary.make ~dropped events in
  print_string (Summary.render ~time_unit:"ns" summary);
  per_worker_stats_table pool;
  cross_check events (Wool.Stats.aggregate pool) ~dropped;
  print_granularity ~label:"measured (work = serial ns)" ~unit:"ns"
    (Granularity.of_events ~work:serial_ns events);
  (* Simulator counterpart: deterministic two-pass run-then-trace, then the
     same Summary over the same event vocabulary. *)
  let module E = Wool_sim.Engine in
  let module T = Wool_sim.Trace in
  let tree = spec.Spec.sim_tree () in
  Printf.printf "-- simulated counterpart: %s, %d workers --\n"
    spec.Spec.sim_descr workers;
  let r1 = E.run ?steal_policy:policy ~policy:Wool_sim.Policy.wool ~workers tree in
  let tr = T.create ~workers ~horizon:r1.E.time () in
  let r2 =
    E.run ?steal_policy:policy ~policy:Wool_sim.Policy.wool ~workers ~trace:tr
      tree
  in
  let sim_events = T.events tr in
  let sim_summary =
    Summary.make ~dropped:(T.events_dropped tr) sim_events
  in
  side_by_side summary sim_summary;
  print_granularity ~label:"simulated (work = cycles)" ~unit:"cycles"
    (Granularity.of_events ~work:(float_of_int r2.E.work) sim_events);
  Printf.printf
    "simulated completion: %s cycles, %d steals (%d leapfrog), hash %x\n"
    (Table.cell_i r2.E.time) r2.E.steals r2.E.leap_steals r2.E.trace_hash
