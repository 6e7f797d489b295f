(* The repository benchmark: times the Wool runtime end to end and layer
   by layer, from outside the library.

     wool_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                    [--trace-file FILE] [--out FILE] [--tiny]
     wool_bench.exe ab PARENT_EXE CHANGE_EXE [--pairs N] ...
     wool_bench.exe smoke [--bench BENCHMARK.json]

   A run prints one line per metric (name, value, unit, sample count)
   and, as its last line, the result object: the end-to-end metrics of
   an untraced run, the per-layer metrics of a traced one. A traced run
   writes its spans as Chrome trace JSON only to a --trace-file. It
   exits non-zero on a wrong result or a pool invariant violation. See
   README.md. *)

open Measure

let die = Cli.die

(* /proc/stat's aggregate cpu line: total ticks and steal ticks, so a
   run on a noisy host can be told apart afterwards. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
        let f = Array.of_list (List.map int_of_string fields) in
        let total = ref 0 in
        for i = 0 to min 7 (Array.length f - 1) do
          total := !total + f.(i)
        done;
        Some (!total, if Array.length f > 7 then f.(7) else 0)
    | _ -> None
  with _ -> None

(* The result object: the last line of a run with [~full:false], the
   --out file with every metric's sample count and kind and [fields]. *)
let result ~full fields metrics =
  let metric m =
    Json.Obj
      ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
      @
      if full then [ ("n", Json.Num (float_of_int m.n)); ("kind", Json.Str (kind_name m.kind)) ]
      else [])
  in
  Json.Obj
    ([
       ("correct", Json.Bool (!problems = []));
       ("attempted", Json.Num (float_of_int !attempted));
       ("failed", Json.Num (float_of_int !failed));
     ]
    @ fields
    @ [ ("metrics", Json.Obj (List.map (fun m -> (m.name, metric m)) metrics)) ])

let print_metric m =
  Printf.printf "%-34s %22s %-6s n=%-7d %s\n" m.name (Json.number m.value) m.unit_ m.n
    (kind_name m.kind)

let run_workload ~workload ~seed ~seconds ~trace ~trace_file ~out ~tiny =
  let cpu0 = cpu_ticks () in
  Printf.printf "wool_bench workload=%s seed=%d seconds=%g trace=%d%s\n%!" workload seed
    seconds (Bool.to_int trace)
    (if tiny then " tiny" else "");
  let metrics = Workloads.run workload ~seed ~seconds ~tiny ~trace in
  let steal_frac =
    match (cpu0, cpu_ticks ()) with
    | Some (t0, s0), Some (t1, s1) when t1 > t0 ->
        float_of_int (s1 - s0) /. float_of_int (t1 - t0)
    | _ -> nan
  in
  let host =
    extra "host.nproc" "count" (float_of_int (Domain.recommended_domain_count ()))
    :: (if Float.is_nan steal_frac then [] else [ extra "host.steal_frac" "ratio" steal_frac ])
  in
  let metrics = metrics @ host in
  List.iter print_metric metrics;
  Option.iter
    (fun file ->
      Spans.write_chrome file;
      Printf.printf "trace: %s (%d spans dropped past the per-domain buffer)\n" file
        (Spans.dropped ()))
    (if trace then trace_file else None);
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) (List.rev !problems);
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Json.to_string
               (result ~full:true
                  [
                    ("workload", Json.Str workload);
                    ("seed", Json.Num (float_of_int seed));
                    ("seconds", Json.Num seconds);
                    ("trace", Json.Bool trace);
                    ("tiny", Json.Bool tiny);
                    ("problems", Json.List (List.rev_map (fun p -> Json.Str p) !problems));
                  ]
                  metrics));
          output_char oc '\n'))
    out;
  let shown = if trace then Per_layer else End_to_end in
  print_endline
    (Json.to_string (result ~full:false [] (List.filter (fun m -> m.kind = shown) metrics)));
  if !problems <> [] then exit 1

let main args =
  let workload = ref None and seed = ref 42 and seconds = ref 25. and trace = ref false in
  let trace_file = ref None and out = ref None and tiny = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> die "bad --seed");
        go rest
    | "--seconds" :: s :: rest ->
        seconds :=
          (match float_of_string_opt s with
          | Some s when s > 0. -> s
          | _ -> die "bad --seconds");
        go rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1");
        go rest
    | "--trace-file" :: f :: rest ->
        trace_file := Some f;
        go rest
    | "--out" :: f :: rest ->
        out := Some f;
        go rest
    | "--tiny" :: rest ->
        tiny := true;
        go rest
    | a :: _ -> die ("unknown argument " ^ a)
  in
  go args;
  let workload =
    match !workload with
    | Some w when List.mem w Workloads.names -> w
    | Some w -> die ("unknown workload " ^ w)
    | None -> die "--workload is required"
  in
  run_workload ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_file:!trace_file
    ~out:!out ~tiny:!tiny

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "ab" :: rest -> Ab.main rest
  | "smoke" :: rest -> Smoke.main rest
  | ("-h" | "--help" | "help") :: _ -> print_endline Cli.usage
  | args -> main args
