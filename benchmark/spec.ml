(* BENCHMARK.json (the workloads, and each metric's unit, direction and
   regression bound), and running a benchmark executable and reading its
   result line: what [ab] and [smoke] share. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (** share of the parent's median; end-to-end only *)
}

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load path =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  let j = Json.parse text in
  let metrics key =
    List.map
      (fun m ->
        {
          name = Json.str (Json.member "name" m);
          unit_ = Json.str (Json.member "unit" m);
          lower_is_better = Json.str (Json.member "better" m) = "lower";
          bound = Option.map (fun b -> Json.num (Some b)) (Json.member "bound" m);
        })
      (Json.list (Json.member key j))
  in
  {
    run_seconds = Json.num (Json.member "run_seconds" j);
    workloads =
      List.map (fun w -> Json.str (Json.member "name" w)) (Json.list (Json.member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* Run [exe args] with its standard output in [file]; the exit code, or
   -1 if it was killed. *)
let run_to_file exe args file =
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd Unix.stderr)
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

let lines file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) ""))

(* The result object a run prints as its last line. *)
let result file =
  match List.rev (lines file) with
  | last :: _ -> Json.parse last
  | [] -> raise (Json.Error "no output")

let metric_values result =
  match Json.member "metrics" result with
  | Some (Json.Obj l) -> List.map (fun (k, v) -> (k, Json.num (Json.member "value" v))) l
  | _ -> raise (Json.Error "result has no metrics object")
