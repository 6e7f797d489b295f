(* Randomized schedule fuzzing with a sequential oracle ("woolbench
   check"): run seeded fork-join histories through the real pool —
   random spawn trees, random mode / worker-count / publicity / policy
   combinations, optionally under a fault-injection plan that perturbs
   timing — and validate every history against ground truth: the result
   must equal a sequential evaluation, every task must execute exactly
   once, the quiescent pool must pass {!Wool.Invariants.check}, and the
   recorded trace stream must satisfy {!Wool_check.Oracle.check_events}
   (counter accounting plus steal/spawn/join causality). The multi-domain
   schedule itself is the randomness source; the seed makes the workload
   and configuration reproducible, not the interleaving. *)

module Table = Wool_util.Table
module Clock = Wool_util.Clock
module Rng = Wool_util.Rng
module Fault = Wool_fault
module Oracle = Wool_check.Oracle

(* ---- the workload: a random fork-join spec tree ---- *)

(* Each node spawns one task per child and joins them in LIFO order; the
   node's value is its id plus the sum of its children. Ids are assigned
   in generation order, so [eval] doubles as a checksum of the shape. *)
type spec = { id : int; children : spec list }

let max_depth = 8

(* Deterministic tree from [rng]: 0-3 children per node until [budget]
   ids are spent. Explicit recursion (not [List.init]) keeps the Rng
   draw order defined. *)
let gen_spec rng ~budget =
  let next_id = ref 0 in
  let rec node depth =
    let id = !next_id in
    incr next_id;
    let want = if depth >= max_depth then 0 else Rng.int rng 4 in
    let rec kids n acc =
      if n = 0 || !next_id >= budget then List.rev acc
      else kids (n - 1) (node (depth + 1) :: acc)
    in
    { id; children = kids want [] }
  in
  let root = node 0 in
  (root, !next_id)

let rec eval spec =
  List.fold_left (fun acc c -> acc + eval c) spec.id spec.children

(* Per-task busywork: with no compute at all the owner unwinds the whole
   tree before a thief can win a single steal, and the oracle only ever
   sees empty histories. A few microseconds per node keeps descriptors
   exposed long enough for real steal/leapfrog traffic. *)
let spin n =
  for i = 1 to n do
    ignore (Sys.opaque_identity i : int)
  done

let rec task counts ctx spec =
  ignore (Atomic.fetch_and_add counts.(spec.id) 1 : int);
  spin (1000 + (spec.id * 37 mod 4000));
  let futs =
    List.map
      (fun c -> Wool.spawn ctx (fun ctx -> task counts ctx c))
      spec.children
  in
  (* joins must be LIFO: most recent spawn first *)
  List.fold_left
    (fun acc f -> acc + Wool.join ctx f)
    spec.id (List.rev futs)

(* ---- one history ---- *)

type row = {
  seed : int;
  mode : Wool.mode;
  workers : int;
  publicity : Wool.publicity;
  policy : Wool_policy.t;
  faulty : bool;  (** ran under a random (exception-free) fault plan *)
  nodes : int;  (** tasks in the spec tree *)
  stats : Wool.Stats.t;
  elapsed_ns : float;
  violations : string list;  (** oracle violations (must be empty) *)
}

(* Every mode: the single source of truth is {!Wool.Mode.all}, so a new
   mode is fuzzed the day it exists. *)
let all_modes = Array.of_list Wool.Mode.all
let publicities = [| Wool.All_public; Wool.Adaptive 1; Wool.Adaptive 4;
                     Wool.All_private |]

let direct = Wool.Mode.is_direct

(* The oracle's accounting: every tag the stats JSON counts. None of
   them moves once [run] returns, unlike the idle loop's probes and
   naps. *)
let counts_of_stats s =
  List.filter_map
    (function
      | _, Wool.Stats.Count tag -> Some (tag, Wool.Stats.count s tag)
      | _, (Wool.Stats.Failed_steals | Max_pool_depth) -> None)
    Wool.Stats.keys

let run_one ~seed =
  (* Everything about the history flows from the seed: the mode rotates
     so any consecutive window of 4 seeds covers all four, the rest is
     drawn from a seed-keyed generator. *)
  let rng = Rng.make (0x5eed0 + seed) in
  let mode = all_modes.(seed mod Array.length all_modes) in
  let workers = 1 + Rng.int rng 4 in
  let publicity = publicities.(Rng.int rng (Array.length publicities)) in
  let policies = Array.of_list (Wool_policy.sweep ()) in
  (* a third of the histories run a hierarchical selector with a random
     topology (socket count, SMT width, probe budgets, escalation
     percentages all drawn per history), so near-first probing with
     steal-back covers the same interleavings as the flat selectors *)
  let policy =
    if Rng.int rng 3 = 0 then begin
      let sockets = 1 + Rng.int rng 4 in
      let smt = 1 + Rng.int rng 2 in
      let probes = [| 1 + Rng.int rng 4; 1 + Rng.int rng 8 |] in
      let escalate_pct = [| Rng.int rng 101; Rng.int rng 101 |] in
      let hier = Wool_policy.Hier.auto ~probes ~escalate_pct ~smt ~sockets () in
      Wool_policy.make
        ~selector:(Wool_policy.Selector.Hierarchical hier)
        ~backoff:
          (List.nth Wool_policy.Backoff.all
             (Rng.int rng (List.length Wool_policy.Backoff.all)))
        ()
    end
    else policies.(Rng.int rng (Array.length policies))
  in
  let faults =
    (* half the seeds run under timing interference: delays and forced
       retries at the protocol fault sites, no injected exceptions *)
    if Rng.bool rng then Some (Fault.Plan.random ~exceptions:false ~seed ())
    else None
  in
  let budget = 30 + Rng.int rng 171 in
  (* a quarter of the histories run as server pools (worker 0 spawned,
     the fuzz driver a pure producer); all of them mix a few external
     submissions in ahead of the main run, so the ingress path is under
     the same schedule fuzzing as the steal protocol *)
  let server = Rng.int rng 4 = 0 in
  let n_inject = Rng.int rng 4 in
  (* lifecycle traffic: a few submissions arrive pre-cancelled or past
     their deadline, so the drop-at-dequeue path runs under the same
     schedule fuzzing — their bodies must never execute, and dropped
     jobs must not perturb the dequeue accounting checked below *)
  let n_cancel = Rng.int rng 2 in
  let n_expire = Rng.int rng 2 in
  (* a third of the histories chase the spec tree with a rope reduction
     on the same pool, so the lazy splitter's steal-pressure probes (and
     the nondeterministic spawn trees they produce) run under the same
     schedule fuzzing as the steal protocol *)
  let rope = Rng.int rng 3 = 0 in
  let rope_chunk = 1 + Rng.int rng 32 in
  let rope_len = 64 + Rng.int rng 512 in
  let spec, nodes = gen_spec rng ~budget in
  let expect = eval spec in
  let counts = Array.init nodes (fun _ -> Atomic.make 0) in
  let config =
    Wool.Config.make ~workers ~mode ~publicity ~policy ?faults ~seed ~server
      ~trace:true ~trace_capacity:(1 lsl 14) ()
  in
  let pool = Wool.create ~config () in
  let violations = ref [] in
  let add v = violations := !violations @ v in
  let tickets =
    Wool.Submit.submit_batch pool
      (List.init n_inject (fun i _ctx ->
           spin (500 + (i * 131));
           0x1000 + i))
  in
  let dropped_ran = Atomic.make 0 in
  let drop_body _ctx = Atomic.incr dropped_ran in
  let cancel_tickets =
    List.init n_cancel (fun _ ->
        let c = Wool.Cancel.create () in
        Wool.Cancel.cancel c;
        Wool.Submit.submit ~cancel:c pool drop_body)
  in
  let expire_tickets =
    List.init n_expire (fun _ ->
        Wool.Submit.submit ~deadline:(Clock.now_ns () - 1) pool drop_body)
  in
  let (), elapsed_ns =
    Clock.time (fun () ->
        let v = Wool.run pool (fun ctx -> task counts ctx spec) in
        if v <> expect then
          add
            [
              Printf.sprintf "wrong result: eval = %d, expected %d" v expect;
            ])
  in
  if rope then begin
    let xs = Array.init rope_len (fun i -> i * 7 mod 64) in
    let expect_sum = Array.fold_left ( + ) 0 xs in
    let got =
      Wool.run pool (fun ctx ->
          Wool_ropes.reduce ctx
            ~split:(Wool_ropes.Lazy_split rope_chunk)
            ~neutral:0 ~combine:( + ) Fun.id
            (Wool_ropes.of_array xs))
    in
    if got <> expect_sum then
      add
        [
          Printf.sprintf "rope reduce = %d, expected %d (chunk %d, len %d)"
            got expect_sum rope_chunk rope_len;
        ]
  end;
  List.iteri
    (fun i tk ->
      match Wool.Submit.await tk with
      | v ->
          if v <> 0x1000 + i then
            add
              [
                Printf.sprintf "submission %d returned %#x, expected %#x" i v
                  (0x1000 + i);
              ]
      | exception e ->
          add
            [
              Printf.sprintf "submission %d raised %s" i
                (Printexc.to_string e);
            ])
    tickets;
  List.iteri
    (fun i tk ->
      match Wool.Submit.await tk with
      | () -> add [ Printf.sprintf "cancelled submission %d completed" i ]
      | exception Wool.Submit.Cancelled -> ()
      | exception e ->
          add
            [
              Printf.sprintf "cancelled submission %d raised %s" i
                (Printexc.to_string e);
            ])
    cancel_tickets;
  List.iteri
    (fun i tk ->
      match Wool.Submit.await tk with
      | () -> add [ Printf.sprintf "expired submission %d completed" i ]
      | exception Wool.Submission_expired -> ()
      | exception e ->
          add
            [
              Printf.sprintf "expired submission %d raised %s" i
                (Printexc.to_string e);
            ])
    expire_tickets;
  if Atomic.get dropped_ran <> 0 then
    add
      [
        Printf.sprintf "%d dropped submission bodies executed"
          (Atomic.get dropped_ran);
      ];
  (* Execution multiplicity is the ground truth: every mode must show
     every task at exactly 1. *)
  Array.iteri
    (fun id c ->
      let n = Atomic.get c in
      if n <> 1 then
        add [ Printf.sprintf "task %d executed %d times, expected 1" id n ])
    counts;
  add (Wool.Invariants.check pool);
  let stats = Wool.Stats.aggregate pool in
  let spawns = Wool.Stats.count stats Spawn in
  (* A rope run adds however many splits steal pressure forced (a
     schedule-dependent, nonnegative count), so with a rope the edge
     count is a lower bound instead of an exact match. *)
  (if rope then begin
     if spawns < nodes - 1 then
       add
         [
           Printf.sprintf "stats.spawns = %d, expected >= %d (tree edges)"
             spawns (nodes - 1);
         ]
   end
   else if spawns <> nodes - 1 then
     add
       [
         Printf.sprintf "stats.spawns = %d, expected %d (tree edges)" spawns
           (nodes - 1);
       ]);
  (* every [Wool.run] goes through the ingress too *)
  let runs = if rope then 2 else 1 in
  let injected = Wool.Stats.count stats Dequeue_injected in
  if injected <> n_inject + runs then
    add
      [
        Printf.sprintf "stats.injected = %d, expected %d" injected
          (n_inject + runs);
      ];
  let ig = Wool.ingress_stats pool in
  if ig.Wool.Pool.submitted <> ig.Wool.Pool.admitted + ig.Wool.Pool.rejected
  then
    add
      [
        Printf.sprintf "ingress imbalance: submitted %d <> admitted %d + \
                        rejected %d"
          ig.Wool.Pool.submitted ig.Wool.Pool.admitted ig.Wool.Pool.rejected;
      ];
  if ig.Wool.Pool.cancelled <> n_cancel then
    add
      [
        Printf.sprintf "ingress cancelled = %d, expected %d"
          ig.Wool.Pool.cancelled n_cancel;
      ];
  if ig.Wool.Pool.expired <> n_expire then
    add
      [
        Printf.sprintf "ingress expired = %d, expected %d"
          ig.Wool.Pool.expired n_expire;
      ];
  (* the trace oracle wants exact thief rings: shut down first *)
  Wool.shutdown pool;
  add
    (Oracle.check_events ~direct:(direct mode)
       ~counts:(counts_of_stats stats)
       ~dropped:(Wool.trace_dropped pool)
       (Wool.trace_per_worker pool));
  {
    seed;
    mode;
    workers;
    publicity;
    policy;
    faulty = faults <> None;
    nodes;
    stats;
    elapsed_ns;
    violations = !violations;
  }

let fuzz ?(histories = 100) ?(seed0 = 0) () =
  List.init histories (fun i -> run_one ~seed:(seed0 + i))

let publicity_name = function
  | Wool.All_public -> "public"
  | Wool.All_private -> "private"
  | Wool.Adaptive n -> Printf.sprintf "adaptive %d" n

let print_rows rows =
  let tbl =
    Table.create ~title:"schedule fuzzing vs sequential oracle"
      ~header:
        [
          "seed"; "mode"; "w"; "publicity"; "policy"; "faults"; "tasks";
          "inj"; "steals"; "ms"; "oracle";
        ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          Table.cell_i r.seed;
          Wool.Config.mode_name r.mode;
          Table.cell_i r.workers;
          (if direct r.mode then publicity_name r.publicity else "-");
          Wool_policy.name r.policy;
          (if r.faulty then "plan" else "-");
          Table.cell_i r.nodes;
          Table.cell_i (Wool.Stats.count r.stats Dequeue_injected);
          Table.cell_i (Wool.Stats.count r.stats Steal_ok);
          Table.cell_f ~dec:1 (r.elapsed_ns /. 1e6);
          (match r.violations with
          | [] -> "ok"
          | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs));
        ])
    rows;
  Table.print tbl;
  let bad = List.filter (fun r -> r.violations <> []) rows in
  List.iter
    (fun r ->
      Printf.printf "!! seed %d / %s / %d workers:\n" r.seed
        (Wool.Config.mode_name r.mode)
        r.workers;
      List.iter (fun v -> Printf.printf "!!   %s\n" v) r.violations)
    bad;
  let steals =
    List.fold_left (fun acc r -> acc + Wool.Stats.count r.stats Steal_ok) 0 rows
  in
  let tasks = List.fold_left (fun acc r -> acc + r.nodes) 0 rows in
  Printf.printf "%d histories, %d tasks, %d steals, %d with violations\n"
    (List.length rows) tasks steals (List.length bad);
  List.length bad

(* ---- the kernel matrix: every tier-1 kernel on every real scheduler
   (the four pool modes plus the steal-parent runtime), each result
   checked against the serial computation and each Wool pool against
   {!Wool.Invariants.check} ---- *)

module Ca = Wool_cactus.Cactus
module Spec = Exp_common.Spec

type cell = {
  kernel : string;
  scheduler : string;
  violations : string list;
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

(* The Wool and serial sides of the tier-1 kernels come from the shared
   spec table; only the steal-parent (cactus) ports — which need the raw
   input parameters — live here. *)
let of_spec name cactus =
  let s = Spec.find name in
  { name; serial = s.Spec.serial; wool = s.Spec.wool; cactus }

(* Steal-parent: every spawn captures a fiber. *)
let rec cactus_fib ctx n =
  if n < 2 then n
  else begin
    let a = Ca.promise () and b = Ca.promise () in
    Ca.spawn_into ctx a (fun ctx -> cactus_fib ctx (n - 1));
    Ca.spawn_into ctx b (fun ctx -> cactus_fib ctx (n - 2));
    Ca.sync ctx;
    Ca.read a + Ca.read b
  end

let fib_kernel =
  let n = Spec.fib_n Spec.Std in
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
    Spec.digest_of_matrix c
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

let wrong_result ~got ~expected =
  if got = expected then []
  else [ Printf.sprintf "result %d, serial says %d" got expected ]

let kernel_matrix ?(workers = 3) () =
  List.concat_map
    (fun k ->
      let expected = k.serial () in
      let wool_cell mode =
        Wool.with_pool ~config:(Wool.Config.make ~workers ~mode ())
          (fun pool ->
            let got, ns = Clock.time (fun () -> Wool.run pool k.wool) in
            let s = Wool.Stats.aggregate pool in
            {
              kernel = k.name;
              scheduler = "wool/" ^ Wool.Mode.name mode;
              violations =
                wrong_result ~got ~expected @ Wool.Invariants.check pool;
              millis = ns /. 1e6;
              spawns = Wool.Stats.count s Spawn;
              steals = Wool.Stats.count s Steal_ok;
            })
      in
      let cactus_cell =
        Ca.with_pool ~workers (fun pool ->
            let got, ns = Clock.time (fun () -> Ca.run pool k.cactus) in
            let s = Ca.stats pool in
            {
              kernel = k.name;
              scheduler = "steal-parent";
              violations = wrong_result ~got ~expected;
              millis = ns /. 1e6;
              spawns = s.Ca.spawns;
              steals = s.Ca.steals;
            })
      in
      List.map wool_cell Wool.Mode.all @ [ cactus_cell ])
    kernels

let print_matrix cells =
  let tbl =
    Table.create ~title:"kernel matrix vs serial"
      ~header:[ "kernel"; "scheduler"; "result"; "ms"; "spawns"; "steals" ]
      ()
  in
  List.iter
    (fun c ->
      Table.add_row tbl
        [
          c.kernel;
          c.scheduler;
          (match c.violations with
          | [] -> "ok"
          | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs));
          Table.cell_f ~dec:2 c.millis;
          Table.cell_i c.spawns;
          Table.cell_i c.steals;
        ])
    cells;
  Table.print tbl;
  let bad = List.filter (fun c -> c.violations <> []) cells in
  List.iter
    (fun c ->
      Printf.printf "!! %s / %s:\n" c.kernel c.scheduler;
      List.iter (Printf.printf "!!   %s\n") c.violations)
    bad;
  Printf.printf "%d cells, %d with violations\n" (List.length cells)
    (List.length bad);
  List.length bad

(* ---- model-check scenarios (the exhaustive side of "woolbench
   check") ---- *)

let run_scenarios ?max_schedules () =
  let tbl =
    Table.create ~title:"model-checked protocol scenarios"
      ~header:[ "scenario"; "schedules"; "max depth"; "result" ]
      ()
  in
  let failures = ref [] in
  List.iter
    (fun (s : Wool_check.Scenarios.t) ->
      match Wool_check.Scenarios.run_one ?max_schedules s with
      | Wool_check.Scenarios.Pass (st : Wool_check.Sched.stats) ->
          Table.add_row tbl
            [
              s.name; Table.cell_i st.schedules; Table.cell_i st.max_depth;
              "pass";
            ]
      | Wool_check.Scenarios.Fail msg ->
          failures := (s.name, msg) :: !failures;
          Table.add_row tbl [ s.name; "-"; "-"; "FAIL" ])
    Wool_check.Scenarios.all;
  Table.print tbl;
  List.iter
    (fun (name, msg) -> Printf.printf "!! %s:\n!!   %s\n" name msg)
    (List.rev !failures);
  Printf.printf "%d scenarios, %d failed\n"
    (List.length Wool_check.Scenarios.all)
    (List.length !failures);
  List.length !failures
