(* Paired A/B of two builds of this benchmark:

     wool_bench.exe ab PARENT_EXE CHANGE_EXE --pairs 10

   The workloads and the run length are BENCHMARK.json's. For each
   workload and pair it runs both binaries on one seed, the parent first
   in odd pairs and the change first in even ones, so slow drift of the
   host lands on both sides alike. For each end-to-end metric it prints
   both sides' medians and quartiles, how many pairs the change won, and
   a verdict:
   - gain: the change won at least 9 pairs in 10 (ties count for
     neither) and its median beats the parent's by more than the
     parent's own quartile spread;
   - regression: the change's median is worse than the parent's by more
     than the metric's bound in BENCHMARK.json;
   - slower: a loss the bound lets through but the pairs resolve: the
     parent won at least 9 pairs in 10 and its median beats the change's
     by more than the parent's own quartile spread;
   - unresolved: none of these, and the parent's quartile spread is
     wider than the bound, so "unchanged" cannot be told from noise;
   - within bound: otherwise.
   It then makes one traced run of each side per workload and prints the
   per-layer metrics side by side, to show which layer moved. *)

open Measure

type side = {
  exe : string;
  runs : (string * int * (string * float) list) list ref;
  traced : (string * (string * float) list) list ref;
}

let run_once ~exe ~workload ~seed ~seconds ~trace =
  let file = Filename.temp_file "wool-bench-ab" ".out" in
  let code =
    Spec.run_to_file exe
      [
        "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
      ]
      file
  in
  let r = try Ok (Spec.result file) with Json.Error e -> Error e in
  Sys.remove file;
  match r with
  | Ok r when code = 0 && Json.member "correct" r = Some (Json.Bool true) ->
      Spec.metric_values r
  | Ok _ | Error _ ->
      Printf.eprintf "ab: %s --workload %s --seed %d failed (exit %d)\n%!" exe workload seed
        code;
      exit 1

let values side workload metric =
  Array.of_list
    (List.filter_map
       (fun (w, _, ms) -> if w = workload then List.assoc_opt metric ms else None)
       (List.rev !(side.runs)))

let verdict (m : Spec.metric) ~parent ~change =
  let pairs = Array.length parent in
  let better a b = if m.lower_is_better then a < b else a > b in
  let wins = ref 0 and losses = ref 0 in
  Array.iteri
    (fun i p ->
      if better change.(i) p then incr wins else if better p change.(i) then incr losses)
    parent;
  let q1, mp, q3 = quartiles parent and _, mc, _ = quartiles change in
  let worse = if m.lower_is_better then mc -. mp else mp -. mc in
  let bound = Option.value m.bound ~default:0. *. Float.abs mp in
  let v =
    if 10 * !wins >= 9 * pairs && -.worse > q3 -. q1 then "gain"
    else if worse > bound then "regression"
    else if 10 * !losses >= 9 * pairs && worse > q3 -. q1 then "slower"
    else if q3 -. q1 > bound then "unresolved"
    else "within bound"
  in
  (!wins, v)

let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l)

let summary side (spec : Spec.t) =
  [
    ("exe", Json.Str (Filename.basename side.exe));
    ( "runs",
      Json.List
        (List.rev_map
           (fun (w, seed, ms) ->
             Json.Obj
               [
                 ("workload", Json.Str w);
                 ("seed", Json.Num (float_of_int seed));
                 ("metrics", num_obj ms);
               ])
           !(side.runs)) );
    ( "summary",
      Json.Obj
        (List.map
           (fun w ->
             ( w,
               Json.Obj
                 (List.map
                    (fun (m : Spec.metric) ->
                      let q1, q2, q3 = quartiles (values side w m.name) in
                      ( m.name,
                        num_obj
                          [ ("median", q2); ("q1", q1); ("q3", q3); ("spread", (q3 -. q1) /. q2) ]
                      ))
                    spec.end_to_end) ))
           spec.workloads) );
    ("traced", Json.Obj (List.rev_map (fun (w, ms) -> (w, num_obj ms)) !(side.traced)));
  ]

let write path j =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let main args =
  let pairs = ref 10 and bench = ref "BENCHMARK.json" and out = ref None and exes = ref [] in
  let rec go = function
    | [] -> ()
    | "--pairs" :: n :: rest ->
        pairs := int_of_string n;
        go rest
    | "--bench" :: f :: rest ->
        bench := f;
        go rest
    | "--out" :: p :: rest ->
        out := Some p;
        go rest
    | a :: rest ->
        exes := a :: !exes;
        go rest
  in
  (try go args with Failure _ -> Cli.die "bad ab argument");
  let side exe =
    let exe =
      if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe
    in
    { exe; runs = ref []; traced = ref [] }
  in
  let parent, change =
    match List.rev !exes with
    | [ p; c ] -> (side p, side c)
    | _ -> Cli.die "ab takes PARENT_EXE CHANGE_EXE"
  in
  if !pairs < 2 then Cli.die "--pairs must be at least 2";
  let spec = Spec.load !bench in
  let seconds = spec.run_seconds in
  List.iter
    (fun w ->
      for i = 1 to !pairs do
        let order = if i mod 2 = 1 then [ parent; change ] else [ change; parent ] in
        List.iter
          (fun s ->
            let ms = run_once ~exe:s.exe ~workload:w ~seed:i ~seconds ~trace:false in
            s.runs := (w, i, ms) :: !(s.runs))
          order;
        Printf.eprintf "ab: %s pair %d/%d done\n%!" w i !pairs
      done;
      List.iter
        (fun s ->
          let ms = run_once ~exe:s.exe ~workload:w ~seed:1 ~seconds ~trace:true in
          s.traced := (w, ms) :: !(s.traced))
        [ parent; change ];
      Printf.eprintf "ab: %s traced runs done\n%!" w)
    spec.workloads;
  Printf.printf "%-10s %-14s %28s %28s %6s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  let verdicts = ref [] in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          let p = values parent w m.name and c = values change w m.name in
          let pq1, pm, pq3 = quartiles p and cq1, cm, cq3 = quartiles c in
          let wins, v = verdict m ~parent:p ~change:c in
          verdicts := (w, m.name, v) :: !verdicts;
          Printf.printf "%-10s %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %3d/%-2d  %s\n" w
            m.name pm pq1 pq3 cm cq1 cq3 wins (Array.length p) v)
        spec.end_to_end)
    spec.workloads;
  Printf.printf "\ntraced run, seed 1:\n%-10s %-32s %22s %22s\n" "workload" "metric" "parent"
    "change";
  List.iter
    (fun w ->
      let p = List.assoc w !(parent.traced) and c = List.assoc w !(change.traced) in
      List.iter
        (fun (m : Spec.metric) ->
          Printf.printf "%-10s %-32s %22s %22s\n" w m.name
            (Json.number (List.assoc m.name p))
            (Json.number (List.assoc m.name c)))
        spec.per_layer)
    spec.workloads;
  Option.iter
    (fun prefix ->
      write (prefix ^ "-a.json") (Json.Obj (summary parent spec));
      write (prefix ^ "-b.json")
        (Json.Obj
           (summary change spec
           @ [
               ( "verdicts_vs_a",
                 Json.List
                   (List.rev_map
                      (fun (w, m, v) ->
                        Json.Obj
                          [ ("workload", Json.Str w); ("metric", Json.Str m); ("verdict", Json.Str v) ])
                      !verdicts) );
             ])))
    !out
