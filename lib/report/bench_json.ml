(* Reproducible benchmark harness ("woolbench bench <workload|all>"): run
   the tier-1 workloads across worker counts and the scheduler modes
   (all four by default, filterable with --modes), compute Table II-style
   single-worker spawn/join overheads (including the All_private vs
   All_public publicity split), speedups, steal counts and measured
   granularities, and emit a schema-stable BENCH_<date>.json.
   A later run can diff itself against a committed file with --compare;
   "beyond noise" is judged with the baseline's own percentile spread,
   rescaled by the whole-matrix re-measure drift so a machine that got
   uniformly slower does not read as a sea of regressions. *)

module Clock = Wool_util.Clock
module Stats = Wool_util.Stats
module Table = Wool_util.Table
module Json = Wool_trace.Json
module Granularity = Wool_metrics.Granularity
module Spec = Exp_common.Spec

let schema_version = "wool-bench/2"

(* v1 documents (no tail percentiles) still decode; see [stat_of_tree] *)
let schema_v1 = "wool-bench/1"

type stat = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
  p10 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

let stat_of_samples samples =
  let s = Stats.summarize samples in
  {
    n = s.Stats.n;
    mean = s.Stats.mean;
    median = s.Stats.median;
    stddev = s.Stats.stddev;
    min = s.Stats.min;
    max = s.Stats.max;
    p10 = Stats.percentile samples 10.0;
    p90 = Stats.percentile samples 90.0;
    p99 = Stats.percentile samples 99.0;
    p999 = Stats.percentile samples 99.9;
  }

type run = {
  workload : string;
  descr : string;
  mode : string;
  publicity : string;
  workers : int;
  repeats : int;
  ok : bool;
  serial_ns : stat;
  parallel_ns : stat;
  overhead : float;
  speedup : float;
  spawns : int;
  steals : int;
  g_t_ns : float;
  g_l_ns : float;
}

type report = {
  schema : string;
  date : string;
  size : string;
  ghz : float;
  runs : run list;
}

(* Every mode from the canonical table, labelled with its canonical name
   (old baselines used hyphenated spellings; [Wool.Mode.of_name] still
   parses those, and --compare keys skip cells the baseline lacks). *)
let modes = List.map (fun m -> (Wool.Mode.name m, m)) Wool.Mode.all

let publicity_name = function
  | None -> "default"
  | Some Wool.All_private -> "all-private"
  | Some Wool.All_public -> "all-public"
  | Some (Wool.Adaptive n) -> Printf.sprintf "adaptive-%d" n

(* One (workload, mode, publicity, workers) cell: [repeats] timed pool
   runs, a fresh pool per repeat so the counters describe exactly one
   run. Pool construction and shutdown stay outside the timed region. *)
let measure_cell (spec : Spec.t) ~expected ~serial ~mode_name ~mode
    ~publicity ~workers ~repeats =
  let samples = Array.make repeats 0.0 in
  let ok = ref true in
  let spawns = ref 0 and steals = ref 0 in
  for i = 0 to repeats - 1 do
    let config =
      match publicity with
      | None -> Wool.Config.make ~workers ~mode ()
      | Some p -> Wool.Config.make ~workers ~mode ~publicity:p ()
    in
    Wool.with_pool ~config (fun pool ->
        let result, ns = Clock.time (fun () -> Wool.run pool spec.Spec.wool) in
        if result <> expected then ok := false;
        samples.(i) <- ns;
        let s = Wool.Stats.aggregate pool in
        spawns := Wool.Stats.count s Spawn;
        steals := Wool.Stats.count s Steal_ok)
  done;
  let parallel_ns = stat_of_samples samples in
  let g =
    Granularity.of_measured ~work:serial.median ~tasks:!spawns
      ~migrations:!steals
  in
  {
    workload = spec.Spec.name;
    descr = spec.Spec.descr;
    mode = mode_name;
    publicity = publicity_name publicity;
    workers;
    repeats;
    ok = !ok;
    serial_ns = serial;
    parallel_ns;
    overhead = parallel_ns.median /. serial.median;
    speedup = serial.median /. parallel_ns.median;
    spawns = !spawns;
    steals = !steals;
    g_t_ns = g.Granularity.g_t;
    g_l_ns = g.Granularity.g_l;
  }

let measure ?(size = Spec.Std) ?(workers = [ 1; 2; 4 ]) ?(repeats = 3)
    ?(mode_filter = List.map snd modes) ~date names =
  if repeats < 1 then invalid_arg "Bench_json.measure: repeats < 1";
  if workers = [] || List.exists (fun w -> w < 1) workers then
    invalid_arg "Bench_json.measure: bad worker list";
  if mode_filter = [] then invalid_arg "Bench_json.measure: empty mode list";
  let selected = List.filter (fun (_, m) -> List.mem m mode_filter) modes in
  let runs =
    List.concat_map
      (fun name ->
        let spec = Spec.find ~size name in
        let expected = spec.Spec.serial () in
        let serial =
          stat_of_samples
            (Clock.time_ns ~warmup:1 ~repeats (fun () ->
                 ignore (spec.Spec.serial () : int)))
        in
        let cell = measure_cell spec ~expected ~serial ~repeats in
        (* the mode sweep, every worker count *)
        List.concat_map
          (fun (mode_name, mode) ->
            List.map
              (fun w -> cell ~mode_name ~mode ~publicity:None ~workers:w)
              workers)
          selected
        (* Table II's publicity split: single worker, default (Private)
           mode, everything kept private vs everything made stealable —
           the pure spawn/join overhead gap the paper's §III targets *)
        @
        if List.mem_assoc "private" selected then
          List.map
            (fun p ->
              cell ~mode_name:"private" ~mode:Wool.Private ~publicity:(Some p)
                ~workers:1)
            [ Wool.All_private; Wool.All_public ]
        else [])
      names
  in
  {
    schema = schema_version;
    date;
    size = (match size with Spec.Std -> "std" | Spec.Tiny -> "tiny");
    ghz = Clock.ghz ();
    runs;
  }

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)

let add_float b v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
  else Buffer.add_string b "null" (* inf/nan have no JSON spelling *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_stat b (s : stat) =
  Buffer.add_string b (Printf.sprintf "{\"n\":%d" s.n);
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf ",\"%s\":" k);
      add_float b v)
    [
      ("mean", s.mean); ("median", s.median); ("stddev", s.stddev);
      ("min", s.min); ("max", s.max); ("p10", s.p10); ("p90", s.p90);
      ("p99", s.p99); ("p999", s.p999);
    ];
  Buffer.add_char b '}'

let add_run b (r : run) =
  Buffer.add_string b "{\"workload\":";
  add_string b r.workload;
  Buffer.add_string b ",\"descr\":";
  add_string b r.descr;
  Buffer.add_string b ",\"mode\":";
  add_string b r.mode;
  Buffer.add_string b ",\"publicity\":";
  add_string b r.publicity;
  Buffer.add_string b
    (Printf.sprintf ",\"workers\":%d,\"repeats\":%d,\"ok\":%b" r.workers
       r.repeats r.ok);
  Buffer.add_string b ",\"serial_ns\":";
  add_stat b r.serial_ns;
  Buffer.add_string b ",\"parallel_ns\":";
  add_stat b r.parallel_ns;
  Buffer.add_string b ",\"overhead\":";
  add_float b r.overhead;
  Buffer.add_string b ",\"speedup\":";
  add_float b r.speedup;
  Buffer.add_string b
    (Printf.sprintf ",\"spawns\":%d,\"steals\":%d" r.spawns r.steals);
  Buffer.add_string b ",\"g_t_ns\":";
  add_float b r.g_t_ns;
  Buffer.add_string b ",\"g_l_ns\":";
  add_float b r.g_l_ns;
  Buffer.add_char b '}'

let to_json (rep : report) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":";
  add_string b rep.schema;
  Buffer.add_string b ",\"date\":";
  add_string b rep.date;
  Buffer.add_string b ",\"size\":";
  add_string b rep.size;
  Buffer.add_string b ",\"ghz\":";
  add_float b rep.ghz;
  Buffer.add_string b ",\"runs\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      add_run b r)
    rep.runs;
  Buffer.add_string b "]}\n";
  let body = Buffer.contents b in
  (match Json.validate body with
  | Ok () -> ()
  | Error msg -> failwith ("Bench_json.to_json: emitted invalid JSON: " ^ msg));
  body

(* ------------------------------------------------------------------ *)
(* JSON decoding (for --compare)                                       *)

let ( let* ) o f = match o with Some v -> f v | None -> None

let float_member k t =
  match Json.member k t with
  | None -> None
  | Some Json.Null -> Some infinity (* inf round-trips as null *)
  | Some v -> Json.to_float v

let int_member k t =
  let* v = float_member k t in
  Some (int_of_float v)

let string_member k t =
  let* v = Json.member k t in
  Json.to_string v

let bool_member k t =
  match Json.member k t with Some (Json.Bool v) -> Some v | _ -> None

let stat_of_tree t =
  let* n = int_member "n" t in
  let* mean = float_member "mean" t in
  let* median = float_member "median" t in
  let* stddev = float_member "stddev" t in
  let* min = float_member "min" t in
  let* max = float_member "max" t in
  let* p10 = float_member "p10" t in
  let* p90 = float_member "p90" t in
  (* absent in v1 documents: default to [max], the only sound upper
     bound the old schema recorded for the tail *)
  let p99 = Option.value ~default:max (float_member "p99" t) in
  let p999 = Option.value ~default:max (float_member "p999" t) in
  Some { n; mean; median; stddev; min; max; p10; p90; p99; p999 }

let run_of_tree t =
  let* workload = string_member "workload" t in
  let* descr = string_member "descr" t in
  let* mode = string_member "mode" t in
  let* publicity = string_member "publicity" t in
  let* workers = int_member "workers" t in
  let* repeats = int_member "repeats" t in
  let* ok = bool_member "ok" t in
  let* serial_ns = Json.member "serial_ns" t in
  let* serial_ns = stat_of_tree serial_ns in
  let* parallel_ns = Json.member "parallel_ns" t in
  let* parallel_ns = stat_of_tree parallel_ns in
  let* overhead = float_member "overhead" t in
  let* speedup = float_member "speedup" t in
  let* spawns = int_member "spawns" t in
  let* steals = int_member "steals" t in
  let* g_t_ns = float_member "g_t_ns" t in
  let* g_l_ns = float_member "g_l_ns" t in
  Some
    {
      workload; descr; mode; publicity; workers; repeats; ok; serial_ns;
      parallel_ns; overhead; speedup; spawns; steals; g_t_ns; g_l_ns;
    }

let of_json body =
  match Json.parse body with
  | Error msg -> Error msg
  | Ok t -> (
      let report =
        let* schema = string_member "schema" t in
        if schema <> schema_version && schema <> schema_v1 then None
        else
          let* date = string_member "date" t in
          let* size = string_member "size" t in
          let* ghz = float_member "ghz" t in
          let* runs = Json.member "runs" t in
          let* runs = Json.to_list runs in
          let runs = List.map run_of_tree runs in
          if List.exists (fun r -> r = None) runs then None
          else
            Some
              {
                schema; date; size; ghz;
                runs = List.filter_map Fun.id runs;
              }
      in
      match report with
      | Some r -> Ok r
      | None ->
          Error
            (Printf.sprintf "not a %s document (or missing fields)"
               schema_version))

let write_file path rep =
  let oc = open_out_bin path in
  output_string oc (to_json rep);
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  of_json body

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type regression = {
  r_run : run;
  r_baseline : run;
  r_ratio : float;  (** new median / old median, drift-corrected *)
}

(* Committed baselines printed hyphenated mode spellings ("chase-lev",
   "task-specific"); route both sides through the mode table so a cell
   keyed under either spelling still matches its successor. *)
let canonical_mode m =
  match Wool.Mode.of_name m with Some md -> Wool.Mode.name md | None -> m

let key (r : run) = (r.workload, canonical_mode r.mode, r.publicity, r.workers)

(* Whole-matrix re-measure delta: the median new/old ratio over every
   cell both reports share. A committed baseline was measured on some
   other day's machine state (frequency scaling, co-tenants, compiler);
   when the whole matrix moved together that is machine drift, not a
   scheduler regression — so the per-cell judgement below normalizes by
   this factor, and the driver prints it as a caveat. *)
let drift_ratio ~baseline current =
  let ratios =
    List.filter_map
      (fun (r : run) ->
        match List.find_opt (fun o -> key o = key r) baseline.runs with
        | Some o when o.parallel_ns.median > 0.0 ->
            Some (r.parallel_ns.median /. o.parallel_ns.median)
        | _ -> None)
      current.runs
  in
  (* with only a handful of shared cells the median ratio cannot tell a
     machine-wide shift from a genuine regression (a single regressed
     cell IS the median) — fall back to no correction *)
  if List.length ratios < 4 then 1.0
  else begin
    let a = Array.of_list ratios in
    Array.sort compare a;
    a.(Array.length a / 2)
  end

(* A cell regresses when its drift-corrected new median lands beyond the
   baseline's own noise band: above the baseline p90 AND more than 10%
   over the baseline median, after dividing out the whole-matrix drift.
   Missing cells (different workload/worker/mode set) are skipped. *)
let compare_reports ?drift ~baseline current =
  let d =
    match drift with Some d -> d | None -> drift_ratio ~baseline current
  in
  let d = if Float.is_finite d && d > 0.0 then d else 1.0 in
  List.filter_map
    (fun (r : run) ->
      match List.find_opt (fun o -> key o = key r) baseline.runs with
      | None -> None
      | Some o ->
          let m = r.parallel_ns.median /. d
          and om = o.parallel_ns.median in
          if m > o.parallel_ns.p90 && m > om *. 1.10 then
            Some { r_run = r; r_baseline = o; r_ratio = m /. om }
          else None)
    current.runs

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let print_report (rep : report) =
  Printf.printf "== wool bench: %s (size %s, %.1f GHz scale) ==\n" rep.date
    rep.size rep.ghz;
  let tbl =
    Table.create
      ~header:
        [ "workload"; "mode"; "publicity"; "w"; "serial ms"; "par ms";
          "overhead"; "speedup"; "spawns"; "steals"; "ok" ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.workload; r.mode; r.publicity; string_of_int r.workers;
          Table.cell_f ~dec:2 (r.serial_ns.median /. 1e6);
          Table.cell_f ~dec:2 (r.parallel_ns.median /. 1e6);
          Table.cell_f ~dec:2 r.overhead;
          Table.cell_f ~dec:2 r.speedup;
          Table.cell_i r.spawns;
          Table.cell_i r.steals;
          (if r.ok then "ok" else "FAIL");
        ])
    rep.runs;
  Table.print tbl;
  (* Table II counterpart: single-worker spawn/join overhead per mode,
     plus the publicity split for the default mode *)
  let single =
    List.filter (fun r -> r.workers = 1 && r.publicity = "default") rep.runs
  in
  if single <> [] then begin
    let tbl =
      Table.create ~title:"single-worker overhead vs sequential (Table II)"
        ~header:("workload" :: List.map fst modes)
        ()
    in
    List.iter
      (fun (spec_name : string) ->
        let row =
          List.map
            (fun (m, _) ->
              match
                List.find_opt
                  (fun r -> r.workload = spec_name && r.mode = m)
                  single
              with
              | Some r -> Table.cell_f ~dec:2 r.overhead
              | None -> "-")
            modes
        in
        if List.exists (fun c -> c <> "-") row then
          Table.add_row tbl (spec_name :: row))
      (List.sort_uniq compare (List.map (fun r -> r.workload) rep.runs));
    Table.print tbl
  end;
  let publ =
    List.filter
      (fun r -> r.publicity = "all-private" || r.publicity = "all-public")
      rep.runs
  in
  if publ <> [] then begin
    let tbl =
      Table.create
        ~title:"publicity split (private mode, 1 worker): overhead"
        ~header:[ "workload"; "all-private"; "all-public"; "gap" ]
        ()
    in
    List.iter
      (fun name ->
        let find p =
          List.find_opt (fun r -> r.workload = name && r.publicity = p) publ
        in
        match (find "all-private", find "all-public") with
        | Some pr, Some pu ->
            Table.add_row tbl
              [
                name;
                Table.cell_f ~dec:2 pr.overhead;
                Table.cell_f ~dec:2 pu.overhead;
                Table.cell_f ~dec:2 (pu.overhead /. pr.overhead);
              ]
        | _ -> ())
      (List.sort_uniq compare (List.map (fun r -> r.workload) publ));
    Table.print tbl
  end

let print_drift_caveat ~drift baseline =
  if Float.abs (drift -. 1.0) > 0.05 then
    Printf.printf
      "compare: whole-matrix re-measure drift %.2fx vs baseline %s — the \
       machine, not the scheduler, moved; per-cell judgements below are \
       drift-corrected\n"
      drift baseline.date

let print_regressions regs =
  if regs = [] then
    print_endline "compare: no regressions beyond noise (drift-corrected)"
  else begin
    let tbl =
      Table.create
        ~title:"REGRESSIONS (drift-corrected median beyond baseline p90 + 10%)"
        ~header:
          [ "workload"; "mode"; "publicity"; "w"; "old ms"; "new ms"; "x" ]
        ()
    in
    List.iter
      (fun { r_run = r; r_baseline = o; r_ratio } ->
        Table.add_row tbl
          [
            r.workload; r.mode; r.publicity; string_of_int r.workers;
            Table.cell_f ~dec:2 (o.parallel_ns.median /. 1e6);
            Table.cell_f ~dec:2 (r.parallel_ns.median /. 1e6);
            Table.cell_f ~dec:2 r_ratio;
          ])
      regs;
    Table.print tbl
  end

let default_out ~date = Printf.sprintf "BENCH_%s.json" date

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let parse_modes names =
  List.map
    (fun n ->
      match Wool.Mode.of_name n with
      | Some m -> m
      | None ->
          failwith
            (Printf.sprintf "unknown mode %S (expected one of: %s)" n
               (String.concat ", " (List.map Wool.Mode.name Wool.Mode.all))))
    names

let run ?size ?workers ?repeats ?mode_names ?out ?compare_with ~date names =
  let names =
    match names with
    | [] | [ "all" ] -> Spec.names
    | names ->
        List.iter (fun n -> ignore (Spec.find n : Spec.t)) names;
        names
  in
  let mode_filter = Option.map parse_modes mode_names in
  let rep = measure ?size ?workers ?repeats ?mode_filter ~date names in
  print_report rep;
  let out = match out with Some p -> p | None -> default_out ~date in
  write_file out rep;
  Printf.printf "wrote %s (%d runs)\n" out (List.length rep.runs);
  if List.exists (fun r -> not r.ok) rep.runs then
    failwith "bench: some parallel digests disagreed with serial";
  match compare_with with
  | None -> 0
  | Some path -> (
      match read_file path with
      | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
      | Ok baseline ->
          let drift = drift_ratio ~baseline rep in
          print_drift_caveat ~drift baseline;
          let regs = compare_reports ~drift ~baseline rep in
          print_regressions regs;
          List.length regs)
