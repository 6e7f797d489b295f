(* "woolbench ropes": the lazy-vs-eager splitting experiment for the
   rope collections (ROADMAP item 1).

   Eager splitting commits to a full grain-sized spawn tree up front —
   the classic divide-and-conquer schedule, paying one spawn/join per
   grain regardless of whether anybody ever steals. Lazy splitting
   processes chunks iteratively and only spawns the far half of the
   remainder when {!Wool.steal_pressure} reports hungry thieves, so an
   unstolen loop body costs almost nothing beyond the serial loop.

   The sweep runs both schedules for the rope workloads across every
   scheduler mode and worker count, plus an A/B of the rope one-liner
   workload paths against their hand-rolled spawn trees. *)

module Clock = Wool_util.Clock
module Table = Wool_util.Table
module Spec = Exp_common.Spec

type arm = {
  a_ms : float;  (** median wall time over the repeats *)
  a_spawns : int;
  a_ok : bool;
}

type cell = {
  workload : string;
  mode : string;
  workers : int;
  lazy_arm : arm;
  eager_arm : arm;
}

(* One (mode, workers, body) measurement: [repeats] timed runs on fresh
   pools; median wall time, spawn count of the last run. *)
let measure ~mode ~workers ~repeats ~expected f =
  let samples = Array.make repeats 0.0 in
  let ok = ref true in
  let spawns = ref 0 in
  for i = 0 to repeats - 1 do
    let config = Wool.Config.make ~workers ~mode () in
    Wool.with_pool ~config (fun pool ->
        let result, ns = Clock.time (fun () -> Wool.run pool f) in
        if result <> expected then ok := false;
        samples.(i) <- ns;
        spawns := Wool.Stats.count (Wool.Stats.aggregate pool) Spawn)
  done;
  Array.sort compare samples;
  {
    a_ms = samples.(repeats / 2) /. 1e6;
    a_spawns = !spawns;
    a_ok = !ok;
  }

(* A rope workload: a digest oracle plus the same body under the two
   split schedules. The chunk sizes match the workload defaults, so the
   only difference between the arms is when the range splits. *)
type subject = {
  s_name : string;
  s_expected : int;
  s_lazy : Wool.ctx -> int;
  s_eager : Wool.ctx -> int;
}

let subjects size =
  let module W = Wool_workloads.Wordcount in
  let module H = Wool_workloads.Histogram in
  let text = W.subject (Spec.wordcount_n size) in
  let data = H.subject (Spec.histogram_n size) in
  [
    {
      s_name = "wordcount";
      s_expected = W.serial text;
      s_lazy = (fun ctx -> W.wool ctx ~split:(Wool_ropes.Lazy_split 512) text);
      s_eager = (fun ctx -> W.wool ctx ~split:(Wool_ropes.Eager 512) text);
    };
    {
      s_name = "histogram";
      s_expected = Spec.digest_of_int_array (H.serial data);
      s_lazy =
        (fun ctx ->
          Spec.digest_of_int_array
            (H.wool ctx ~split:(Wool_ropes.Lazy_split 1) data));
      s_eager =
        (fun ctx ->
          Spec.digest_of_int_array (H.wool ctx ~split:(Wool_ropes.Eager 1) data));
    };
  ]

let compute ?(size = Spec.Std) ?(workers = [ 1; 2; 4 ]) ?(repeats = 3) () =
  if repeats < 1 then invalid_arg "Rope_sweep.compute: repeats < 1";
  List.concat_map
    (fun s ->
      List.concat_map
        (fun mode ->
          List.map
            (fun w ->
              {
                workload = s.s_name;
                mode = Wool.Mode.name mode;
                workers = w;
                lazy_arm =
                  measure ~mode ~workers:w ~repeats ~expected:s.s_expected
                    s.s_lazy;
                eager_arm =
                  measure ~mode ~workers:w ~repeats ~expected:s.s_expected
                    s.s_eager;
              })
            workers)
        Wool.Mode.all)
    (subjects size)

(* The workload one-liners vs their hand-rolled spawn trees, default
   mode only. *)
type ab_cell = {
  ab_workload : string;
  ab_workers : int;
  ab_rope : arm;
  ab_hand : arm;
}

let ab_compute ?(size = Spec.Tiny) ?(workers = [ 1; 2; 4 ]) ?(repeats = 3) () =
  let module M = Wool_workloads.Mm in
  let module F = Wool_workloads.Ssf in
  let module S = Wool_workloads.Sort in
  let n = Spec.mm_n size in
  let a = M.random_matrix (Wool_util.Rng.make 11) n
  and b = M.random_matrix (Wool_util.Rng.make 12) n in
  let text = F.subject (match size with Spec.Std -> 11 | Spec.Tiny -> 8) in
  let input =
    let rng = Wool_util.Rng.make 7 in
    Array.init (Spec.sort_n size) (fun _ -> Wool_util.Rng.int rng 1_000_000)
  in
  let digest_pairs arr =
    Array.fold_left (fun acc (x, y) -> (acc * 31) + (x * 7) + y) 0 arr
  in
  let pairs =
    [
      ( "mm",
        Spec.digest_of_matrix (M.serial a b),
        (fun ctx -> Spec.digest_of_matrix (M.wool ctx a b)),
        fun ctx -> Spec.digest_of_matrix (M.wool_handrolled ctx a b) );
      ( "ssf",
        digest_pairs (F.serial text),
        (fun ctx -> digest_pairs (F.wool ctx text)),
        fun ctx -> digest_pairs (F.wool_handrolled ctx text) );
      ( "sort",
        Spec.digest_of_int_array (S.serial input),
        (fun ctx -> Spec.digest_of_int_array (S.wool ctx input)),
        fun ctx -> Spec.digest_of_int_array (S.wool_handrolled ctx input) );
    ]
  in
  List.concat_map
    (fun (name, expected, rope, hand) ->
      List.map
        (fun w ->
          {
            ab_workload = name;
            ab_workers = w;
            ab_rope = measure ~mode:Wool.Private ~workers:w ~repeats ~expected rope;
            ab_hand = measure ~mode:Wool.Private ~workers:w ~repeats ~expected hand;
          })
        workers)
    pairs

let run ?size ?workers ?repeats () =
  print_endline "== rope splitting: lazy (steal-pressure) vs eager (grain tree) ==";
  let cells = compute ?size ?workers ?repeats () in
  let tbl =
    Table.create
      ~header:
        [ "workload"; "mode"; "w"; "lazy ms"; "eager ms"; "eager/lazy";
          "lazy spawns"; "eager spawns"; "ok" ]
      ()
  in
  let all_ok = ref true in
  List.iter
    (fun c ->
      if not (c.lazy_arm.a_ok && c.eager_arm.a_ok) then all_ok := false;
      Table.add_row tbl
        [
          c.workload; c.mode; string_of_int c.workers;
          Table.cell_f ~dec:2 c.lazy_arm.a_ms;
          Table.cell_f ~dec:2 c.eager_arm.a_ms;
          Table.cell_f ~dec:2 (c.eager_arm.a_ms /. c.lazy_arm.a_ms);
          Table.cell_i c.lazy_arm.a_spawns;
          Table.cell_i c.eager_arm.a_spawns;
          (if c.lazy_arm.a_ok && c.eager_arm.a_ok then "ok" else "FAIL");
        ])
    cells;
  Table.print tbl;
  let ab = ab_compute ?size ?workers ?repeats () in
  let tbl =
    Table.create
      ~title:"workload one-liners vs hand-rolled spawn trees (private mode)"
      ~header:
        [ "workload"; "w"; "rope ms"; "hand ms"; "hand/rope";
          "rope spawns"; "hand spawns"; "ok" ]
      ()
  in
  List.iter
    (fun c ->
      if not (c.ab_rope.a_ok && c.ab_hand.a_ok) then all_ok := false;
      Table.add_row tbl
        [
          c.ab_workload; string_of_int c.ab_workers;
          Table.cell_f ~dec:2 c.ab_rope.a_ms;
          Table.cell_f ~dec:2 c.ab_hand.a_ms;
          Table.cell_f ~dec:2 (c.ab_hand.a_ms /. c.ab_rope.a_ms);
          Table.cell_i c.ab_rope.a_spawns;
          Table.cell_i c.ab_hand.a_spawns;
          (if c.ab_rope.a_ok && c.ab_hand.a_ok then "ok" else "FAIL");
        ])
    ab;
  Table.print tbl;
  print_endline
    "lazy spawns stay near zero until thieves probe; eager spawns are fixed \
     by the grain. eager/lazy > 1 means lazy won that cell.";
  if not !all_ok then failwith "ropes: some digests disagreed with serial"
