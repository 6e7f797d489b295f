module Rng = Wool_util.Rng
module Clock = Wool_util.Clock
module Ca = Wool_cactus.Cactus
module Spec = Exp_common.Spec

type cell = {
  kernel : string;
  scheduler : string;
  ok : bool;
  millis : float;
  spawns : int;
  steals : int;
}

(* Each kernel provides a runner against the Wool API and one against the
   steal-parent API, both returning a comparable digest. *)
type kernel = {
  name : string;
  serial : unit -> int;
  wool : Wool.ctx -> int;
  cactus : Ca.ctx -> int;
}

let digest_of_pairs arr =
  Array.fold_left (fun acc (a, b) -> (acc * 31) + (a * 7) + b) 0 arr

let digest_of_matrix = Spec.digest_of_matrix

(* The Wool and serial sides of the tier-1 kernels come from the shared
   spec table; only the steal-parent (cactus) ports — which need the raw
   input parameters — live here. *)
let of_spec name cactus =
  let s = Spec.find name in
  { name; serial = s.Spec.serial; wool = s.Spec.wool; cactus }

let fib_kernel =
  let n = Spec.fib_n Spec.Std in
  let rec cactus_fib ctx n =
    if n < 2 then n
    else begin
      let a = Ca.promise () and b = Ca.promise () in
      Ca.spawn_into ctx a (fun ctx -> cactus_fib ctx (n - 1));
      Ca.spawn_into ctx b (fun ctx -> cactus_fib ctx (n - 2));
      Ca.sync ctx;
      Ca.read a + Ca.read b
    end
  in
  of_spec "fib" (fun ctx -> cactus_fib ctx n)

let stress_kernel =
  let height = Spec.stress_height Spec.Std
  and leaf_iters = Spec.stress_leaf_iters Spec.Std in
  let module S = Wool_workloads.Stress in
  let rec cactus_tree ctx h =
    if h = 0 then S.serial ~height:0 ~leaf_iters
    else begin
      Ca.spawn ctx (fun ctx -> cactus_tree ctx (h - 1));
      Ca.spawn ctx (fun ctx -> cactus_tree ctx (h - 1));
      Ca.sync ctx
    end
  in
  of_spec "stress" (fun ctx ->
      S.reset_leaf_result ();
      cactus_tree ctx height;
      S.leaf_result ())

let mm_kernel =
  let n = Spec.mm_n Spec.Std in
  let module M = Wool_workloads.Mm in
  (* same matrices as the shared spec (seeds 11/12) so digests line up *)
  let a = M.random_matrix (Rng.make 11) n
  and b = M.random_matrix (Rng.make 12) n in
  let cactus_mm ctx =
    let c = Array.make_matrix n n 0.0 in
    (* row loop, steal-parent style *)
    for i = 0 to n - 1 do
      Ca.spawn ctx (fun _ ->
          let arow = a.(i) and crow = c.(i) in
          for j = 0 to n - 1 do
            let s = ref 0.0 in
            for k = 0 to n - 1 do
              s := !s +. (arow.(k) *. b.(k).(j))
            done;
            crow.(j) <- !s
          done)
    done;
    Ca.sync ctx;
    digest_of_matrix c
  in
  of_spec "mm" cactus_mm

let ssf_kernel =
  let s = Wool_workloads.Ssf.subject 9 in
  let module F = Wool_workloads.Ssf in
  (* steal-parent version: one spawned task per position *)
  let cactus ctx =
    let n = String.length s in
    let out = Array.make n (0, 0) in
    for i = 0 to n - 1 do
      Ca.spawn ctx (fun _ ->
          let best_pos = ref 0 and best_len = ref (-1) in
          for j = 0 to n - 1 do
            if j <> i then begin
              let k = ref 0 in
              while i + !k < n && j + !k < n && s.[i + !k] = s.[j + !k] do
                incr k
              done;
              if !k > !best_len then begin
                best_len := !k;
                best_pos := j
              end
            end
          done;
          out.(i) <- (!best_pos, !best_len))
    done;
    Ca.sync ctx;
    digest_of_pairs out
  in
  {
    name = "ssf";
    serial = (fun () -> digest_of_pairs (F.serial s));
    wool = (fun ctx -> digest_of_pairs (F.wool ctx s));
    cactus;
  }

let cholesky_kernel =
  let module Ch = Wool_workloads.Cholesky in
  let rng = Rng.make 5 in
  let a, size = Ch.random_spd rng ~n:48 ~nz:150 in
  let digest l = Ch.nonzeros l in
  {
    name = "cholesky";
    serial = (fun () -> digest (Ch.serial_factor a size));
    wool = (fun ctx -> digest (Ch.wool_factor ctx a size));
    cactus =
      (fun ctx ->
        (* the quadrant recursion needs futures; run the Wool algorithm's
           serial core under a single steal-parent task *)
        let p = Ca.promise () in
        Ca.spawn_into ctx p (fun _ -> digest (Ch.serial_factor a size));
        Ca.sync ctx;
        Ca.read p);
  }

let nqueens_kernel =
  let n = Spec.nqueens_n Spec.Std in
  let cactus ctx =
    let total = Atomic.make 0 in
    let ok col placed =
      let rec chk d = function
        | [] -> true
        | c :: rest -> c <> col && c - d <> col && c + d <> col && chk (d + 1) rest
      in
      chk 1 placed
    in
    let rec serial_from row placed =
      if row = n then 1
      else begin
        let count = ref 0 in
        for col = 0 to n - 1 do
          if ok col placed then
            count := !count + serial_from (row + 1) (col :: placed)
        done;
        !count
      end
    in
    (* spawn the first two rows; count serially below *)
    let rec go ctx row placed =
      if row >= 2 then
        ignore (Atomic.fetch_and_add total (serial_from row placed) : int)
      else begin
        for col = 0 to n - 1 do
          if ok col placed then
            Ca.spawn ctx (fun ctx -> go ctx (row + 1) (col :: placed))
        done;
        Ca.sync ctx
      end
    in
    go ctx 0 [];
    Atomic.get total
  in
  of_spec "nqueens" cactus

let knapsack_kernel =
  let module Kp = Wool_workloads.Knapsack in
  let rng = Rng.make 11 in
  let items = Kp.random_items rng ~n:16 ~max_weight:20 in
  let capacity = 70 in
  {
    name = "knapsack";
    serial = (fun () -> Kp.serial items ~capacity);
    wool = (fun ctx -> Kp.wool ctx items ~capacity);
    cactus =
      (fun ctx ->
        let p = Ca.promise () in
        Ca.spawn_into ctx p (fun _ -> Kp.serial items ~capacity);
        Ca.sync ctx;
        Ca.read p);
  }

let kernels =
  [
    fib_kernel; stress_kernel; mm_kernel; ssf_kernel; cholesky_kernel;
    nqueens_kernel; knapsack_kernel;
  ]

(* Every mode, from the canonical table. *)
let wool_modes =
  List.map (fun m -> ("wool/" ^ Wool.Mode.name m, m)) Wool.Mode.all

let compute ?(workers = 3) () =
  List.concat_map
    (fun k ->
      let expected = k.serial () in
      let wool_cells =
        List.map
          (fun (label, mode) ->
            Wool.with_pool ~config:(Wool.Config.make ~workers ~mode ()) (fun pool ->
                let result, ns =
                  Clock.time (fun () -> Wool.run pool (fun ctx -> k.wool ctx))
                in
                let s = Wool.Stats.aggregate pool in
                {
                  kernel = k.name;
                  scheduler = label;
                  ok = result = expected;
                  millis = ns /. 1e6;
                  spawns = s.Wool.Pool.spawns;
                  steals = s.Wool.Pool.steals;
                }))
          wool_modes
      in
      let cactus_cell =
        Ca.with_pool ~workers (fun pool ->
            let result, ns =
              Clock.time (fun () -> Ca.run pool (fun ctx -> k.cactus ctx))
            in
            let s = Ca.stats pool in
            {
              kernel = k.name;
              scheduler = "steal-parent";
              ok = result = expected;
              millis = ns /. 1e6;
              spawns = s.Ca.spawns;
              steals = s.Ca.steals;
            })
      in
      wool_cells @ [ cactus_cell ])
    kernels

let run () =
  print_endline "== Real-runtime verification matrix ==";
  let t =
    Wool_util.Table.create
      ~header:[ "kernel"; "scheduler"; "result"; "ms"; "spawns"; "steals" ]
      ()
  in
  let all_ok = ref true in
  List.iter
    (fun c ->
      if not c.ok then all_ok := false;
      Wool_util.Table.add_row t
        [
          c.kernel;
          c.scheduler;
          (if c.ok then "ok" else "FAIL");
          Wool_util.Table.cell_f ~dec:2 c.millis;
          Wool_util.Table.cell_i c.spawns;
          Wool_util.Table.cell_i c.steals;
        ])
    (compute ());
  Wool_util.Table.print t;
  if not !all_ok then failwith "realcheck: some kernels disagreed with serial"
