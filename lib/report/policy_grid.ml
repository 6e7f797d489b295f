(* Steal-policy grid ("woolbench policy"): simulate a
   steal-heavy workload at production-scale virtual core counts on a
   multi-socket topology, once per locality-relevant selector, and report
   where hierarchical stealing crosses over flat random. The simulator is
   deterministic, so the grid doubles as a regression gate: --compare
   diffs a committed JSON snapshot cell by cell (including trace hashes)
   and any drift fails loudly. The real-pool half runs every victim
   selector on an actual pool against the serial digest. *)

module Table = Wool_util.Table
module Json = Wool_trace.Json
module E = Wool_sim.Engine
module Topology = Wool_policy.Topology
module Hier = Wool_policy.Hier
module Selector = Wool_policy.Selector
module Spec = Exp_common.Spec

let schema_version = "wool-policy-grid/1"
let default_seed = 42
let default_sockets = 4
let default_workers = [ 16; 32; 64 ]

(* Steal-heavy by construction: 2^12 leaves of ~200 cycles against a
   ~1200-cycle steal makes victim choice, not work, the bottleneck. *)
let default_height = 15
let default_leaf_iters = 300

type cell = {
  workers : int;
  selector : string;
  time : int;
  steals : int;
  remote : int;
  failed : int;
  hash : string;  (** trace hash as hex — the strongest determinism pin *)
}

type grid = {
  schema : string;
  seed : int;
  sockets : int;
  descr : string;
  cells : cell list;
}

(* The locality-relevant corner of the selector space: the flat default,
   the socket-biased flat selector, and hierarchical probing matched to
   the grid's socket count. *)
let selectors sockets =
  [
    Selector.Random_victim;
    Selector.Socket_local;
    Selector.Hierarchical (Hier.auto ~sockets ());
  ]

let hex_of_hash h = Printf.sprintf "%Lx" (Int64.of_int h)

let run_cell ~seed ~sockets ~tree ~workers selector =
  let topology = Topology.make ~sockets ~workers () in
  let steal_policy = Wool_policy.make ~selector () in
  let r =
    E.run ~seed ~steal_policy ~topology ~policy:Wool_sim.Policy.wool ~workers
      tree
  in
  {
    workers;
    selector = Selector.name selector;
    time = r.E.time;
    steals = r.E.steals;
    remote = r.E.remote_steals;
    failed = r.E.failed_steals;
    hash = hex_of_hash r.E.trace_hash;
  }

let compute ?(seed = default_seed) ?(sockets = default_sockets)
    ?(workers = default_workers) ?(height = default_height)
    ?(leaf_iters = default_leaf_iters) () =
  let tree = Wool_workloads.Stress.tree ~height ~leaf_iters in
  let descr = Printf.sprintf "stress(height=%d,leaf_iters=%d)" height
      leaf_iters in
  let cells =
    List.concat_map
      (fun w ->
        List.map (run_cell ~seed ~sockets ~tree ~workers:w) (selectors sockets))
      workers
  in
  { schema = schema_version; seed; sockets; descr; cells }

let find_cell g ~workers ~selector =
  List.find_opt (fun c -> c.workers = workers && c.selector = selector) g.cells

let print g =
  Printf.printf
    "== locality policy grid: %s, %d sockets, seed %d (simulated) ==\n"
    g.descr g.sockets g.seed;
  let tbl =
    Table.create ~title:"simulated grid"
      ~header:[ "p"; "policy"; "cycles"; "steals"; "remote"; "failed" ]
      ()
  in
  List.iter
    (fun c ->
      Table.add_row tbl
        [ string_of_int c.workers; c.selector; Table.cell_i c.time;
          Table.cell_i c.steals; Table.cell_i c.remote; Table.cell_i c.failed ])
    g.cells;
  Table.print tbl;
  (* The crossover summary: hierarchical vs flat random, per core count. *)
  let worker_counts =
    List.sort_uniq Stdlib.compare (List.map (fun c -> c.workers) g.cells)
  in
  List.iter
    (fun w ->
      let hier =
        List.find_opt
          (fun c ->
            c.workers = w
            && String.length c.selector >= 4
            && String.sub c.selector 0 4 = "hier")
          g.cells
      in
      match (find_cell g ~workers:w ~selector:"random", hier) with
      | Some r, Some h ->
          let pct a b =
            if b = 0 then 0.0
            else 100.0 *. (float_of_int (b - a) /. float_of_int b)
          in
          Printf.printf
            "p=%-3d hier vs random: remote steals %d vs %d (-%.0f%%), time %d \
             vs %d (%+.1f%%)\n"
            w h.remote r.remote (pct h.remote r.remote) h.time r.time
            (-.pct h.time r.time)
      | _ -> ())
    worker_counts

(* ---- JSON snapshot ---- *)

let cell_to_tree c =
  Json.Obj
    [
      ("workers", Int c.workers); ("selector", Str c.selector);
      ("time", Int c.time); ("steals", Int c.steals); ("remote", Int c.remote);
      ("failed", Int c.failed); ("hash", Str c.hash);
    ]

let to_json g =
  Json.to_string
    (Obj
       [
         ("schema", Str g.schema); ("seed", Int g.seed);
         ("sockets", Int g.sockets); ("descr", Str g.descr);
         ("cells", Arr (List.map cell_to_tree g.cells));
       ])

let of_json body =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field read name t =
    match read name t with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "policy grid JSON: missing %s" name)
  in
  let int_field = field Json.int_member
  and str_field = field Json.string_member in
  let* t =
    match Json.parse body with
    | Ok t -> Ok t
    | Error msg -> Error ("policy grid JSON: " ^ msg)
  in
  let* schema = str_field "schema" t in
  if schema <> schema_version then
    Error
      (Printf.sprintf "policy grid JSON: schema %S, expected %S" schema
         schema_version)
  else
    let* seed = int_field "seed" t in
    let* sockets = int_field "sockets" t in
    let* descr = str_field "descr" t in
    let* cells = field Json.list_member "cells" t in
    let* cells =
      List.fold_left
        (fun acc ct ->
          let* acc = acc in
          let* workers = int_field "workers" ct in
          let* selector = str_field "selector" ct in
          let* time = int_field "time" ct in
          let* steals = int_field "steals" ct in
          let* remote = int_field "remote" ct in
          let* failed = int_field "failed" ct in
          let* hash = str_field "hash" ct in
          Ok ({ workers; selector; time; steals; remote; failed; hash } :: acc))
        (Ok []) cells
    in
    Ok { schema; seed; sockets; descr; cells = List.rev cells }

let write_file path g =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_json g))

let read_file path = of_json (In_channel.with_open_bin path In_channel.input_all)

(* Exact diff: the simulator is deterministic, so any difference at all
   is a behaviour change somebody must own (and re-commit the snapshot
   for). *)
let compare_grids ~baseline ~fresh =
  let issues = ref [] in
  let push fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  if baseline.seed <> fresh.seed then
    push "seed: baseline %d, fresh %d" baseline.seed fresh.seed;
  if baseline.sockets <> fresh.sockets then
    push "sockets: baseline %d, fresh %d" baseline.sockets fresh.sockets;
  if baseline.descr <> fresh.descr then
    push "workload: baseline %s, fresh %s" baseline.descr fresh.descr;
  List.iter
    (fun bc ->
      match
        find_cell fresh ~workers:bc.workers ~selector:bc.selector
      with
      | None -> push "cell %d/%s: missing from fresh grid" bc.workers bc.selector
      | Some fc ->
          let diff name a b =
            if a <> b then
              push "cell %d/%s %s: baseline %d, now %d" bc.workers bc.selector
                name a b
          in
          diff "time" bc.time fc.time;
          diff "steals" bc.steals fc.steals;
          diff "remote" bc.remote fc.remote;
          diff "failed" bc.failed fc.failed;
          if bc.hash <> fc.hash then
            push "cell %d/%s hash: baseline %s, now %s" bc.workers bc.selector
              bc.hash fc.hash)
    baseline.cells;
  List.iter
    (fun fc ->
      if find_cell baseline ~workers:fc.workers ~selector:fc.selector = None
      then push "cell %d/%s: not in baseline" fc.workers fc.selector)
    fresh.cells;
  List.rev !issues

(* ---- the real-runtime half: every victim selector on an actual
   pool ---- *)

let real_check ?(workers = 4) () =
  let spec = Spec.find "fib" in
  let expected = spec.Spec.serial () in
  let tbl =
    Table.create
      ~title:(Printf.sprintf "real pool: %s, %d workers" spec.Spec.descr workers)
      ~header:[ "policy"; "ms"; "steals"; "leaps"; "failed"; "spawns" ]
      ()
  in
  List.iter
    (fun selector ->
      let policy = Wool_policy.make ~selector () in
      let config = Wool.Config.make ~workers ~policy () in
      let (got, ns), (s : Wool.Stats.t) =
        Wool.with_pool ~config (fun pool ->
            let r = Wool_util.Clock.time (fun () -> Wool.run pool spec.Spec.wool) in
            (r, Wool.Stats.aggregate pool))
      in
      if got <> expected then
        failwith
          (Printf.sprintf
             "policy grid real-pool check: %s under %s returned %d, serial \
              says %d"
             spec.Spec.descr (Wool_policy.name policy) got expected);
      Table.add_row tbl
        [
          Wool_policy.name policy;
          Table.cell_f ~dec:2 (ns /. 1e6);
          Table.cell_i (Wool.Stats.count s Steal_ok);
          Table.cell_i (Wool.Stats.count s Leap_steal);
          Table.cell_i (Wool.Stats.get s Failed_steals);
          Table.cell_i (Wool.Stats.count s Spawn);
        ])
    Selector.all;
  Table.print tbl
