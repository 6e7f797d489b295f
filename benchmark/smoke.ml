(* wool_bench.exe smoke: runs every workload of BENCHMARK.json at tiny
   sizes, untraced and traced, through this executable's own command
   line, and checks what a benchmark consumer relies on:
   - the run exits 0 and its last line is a correct result object whose
     metrics are exactly BENCHMARK.json's, with the same units;
   - every one of those metrics is printed on its own line with its unit;
   - the --out file and the trace file parse;
   - the exact counts hold: tiny fib (fib 20) makes 10,945 spawns per
     solve, and every words/op probe reads the same in every invocation.
   Outputs go to a fresh temporary directory, removed afterwards. No
   timing is asserted. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("benchmark smoke: " ^ s);
      exit 1)
    fmt

let parse_file what file =
  match Json.parse_result (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s does not parse: %s" what e

(* Probes whose words/op must repeat exactly between invocations. *)
let exact_words =
  [
    "pool.spawn_join_words"; "deque.private_pair_words"; "deque.public_pair_words";
    "pool.run_words"; "ingress.round_trip_words";
  ]

(* Whether [out] has a line "NAME VALUE UNIT ...". *)
let printed out (m : Spec.metric) =
  List.exists
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | n :: _ :: u :: _ -> n = m.name && u = m.unit_
      | _ -> false)
    (Spec.lines out)

let check_run (spec : Spec.t) ~dir ~words w trace =
  let tag = Printf.sprintf "%s/trace=%d" w (Bool.to_int trace) in
  let file suffix = Filename.concat dir (Printf.sprintf "%s-%d.%s" w (Bool.to_int trace) suffix) in
  let code =
    Spec.run_to_file Sys.executable_name
      [
        "--workload"; w; "--seed"; "7"; "--seconds"; "0.6"; "--trace";
        (if trace then "1" else "0");
        "--tiny"; "--out"; file "json"; "--trace-file"; file "trace.json";
      ]
      (file "out")
  in
  if code <> 0 then fail "%s exited %d" tag code;
  let result = try Spec.result (file "out") with Json.Error e -> fail "%s: result line: %s" tag e in
  if Json.member "correct" result <> Some (Json.Bool true) then fail "%s: not correct" tag;
  if Json.num (Json.member "failed" result) <> 0. then fail "%s: failed operations" tag;
  if Json.num (Json.member "attempted" result) < 1. then fail "%s: nothing attempted" tag;
  let expected = if trace then spec.per_layer else spec.end_to_end in
  let got =
    match Json.member "metrics" result with Some (Json.Obj l) -> l | _ -> fail "%s: no metrics" tag
  in
  if List.length got <> List.length expected then
    fail "%s: %d metrics in the result, BENCHMARK.json names %d" tag (List.length got)
      (List.length expected);
  List.iter
    (fun (m : Spec.metric) ->
      (match List.assoc_opt m.name got with
      | Some v when Json.member "unit" v = Some (Json.Str m.unit_) -> ()
      | Some _ -> fail "%s: %s has the wrong unit" tag m.name
      | None -> fail "%s: %s missing from the result" tag m.name);
      if not (printed (file "out") m) then fail "%s: %s is not printed with its unit" tag m.name)
    expected;
  ignore (parse_file (tag ^ " --out file") (file "json") : Json.t);
  if trace then begin
    (match Json.member "traceEvents" (parse_file (tag ^ " trace file") (file "trace.json")) with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> fail "%s: trace file has no events" tag);
    let values = Spec.metric_values result in
    let spawns = List.assoc "pool.spawns" values in
    if w = "fib" && spawns <> float_of_int (Kernels.fib_spawns 20) then
      fail "fib: %g spawns per solve, expected %d" spawns (Kernels.fib_spawns 20);
    List.iter
      (fun k ->
        let v = List.assoc k values in
        match Hashtbl.find_opt words k with
        | Some v0 when v0 <> v -> fail "%s: %s reads %g, an earlier invocation read %g" tag k v v0
        | _ -> Hashtbl.replace words k v)
      exact_words
  end;
  List.iter
    (fun s -> if Sys.file_exists (file s) then Sys.remove (file s))
    [ "out"; "json"; "trace.json" ];
  Printf.printf "%s ok\n%!" tag

let main args =
  let bench =
    match args with
    | [ "--bench"; f ] -> f
    | [] -> "BENCHMARK.json"
    | _ -> Cli.die "smoke [--bench FILE]"
  in
  let spec = Spec.load bench in
  let dir = Filename.temp_dir "wool-bench-smoke" "" in
  let words = Hashtbl.create 8 in
  List.iter
    (fun w -> List.iter (check_run spec ~dir ~words w) [ false; true ])
    spec.workloads;
  Sys.rmdir dir;
  print_endline "benchmark smoke ok"
