(* Seeded fault-injection stress runner ("woolbench faults"): sweep
   random fault plans x all modes x steal policies, run a
   fork-join workload under each combination, and hold the runtime to
   its protocol invariants afterwards — every descriptor EMPTY, steal
   counters balanced, results correct. Plans that inject task
   exceptions additionally exercise the unwind path: the run must fail
   with Wool_fault.Injected, leave the pool quiescent, and a retried
   run on the same pool must eventually succeed (exception rules are
   fire-bounded per worker). *)

module Table = Wool_util.Table
module Clock = Wool_util.Clock
module Fault = Wool_fault

(* The canonical mode list. *)
let all_modes = Wool.Mode.all

(* The workload: naive fork-join fib with a serial cut-off low enough to
   keep plenty of steal traffic but bounded work per task. *)
let fib_arg = 18

let rec fib_serial n = if n < 2 then n else fib_serial (n - 1) + fib_serial (n - 2)

let rec fib_task ctx n =
  if n < 2 then n
  else begin
    let a = Wool.spawn ctx (fun ctx -> fib_task ctx (n - 1)) in
    let b = Wool.call ctx (fun ctx -> fib_task ctx (n - 2)) in
    a |> Wool.join ctx |> ( + ) b
  end

type row = {
  plan : Fault.Plan.t;
  mode : Wool.mode;
  policy : Wool_policy.t;
  elapsed_ns : float;  (** wall time of the whole episode, retries included *)
  runs : int;  (** total runs on the pool (1 + exception retries) *)
  exn_runs : int;  (** runs that ended in [Wool_fault.Injected] *)
  fires : int;  (** total fault fires, all sites and workers *)
  violations : string list;  (** invariant violations (must be empty) *)
}

(* Retry ceiling for plans with exception rules: [Plan.random] bounds
   Raise_exn to <= 2 fires per worker, so with [w] workers at most [2w]
   runs can fail before the rule is exhausted. Anything beyond that is
   itself an invariant violation (the plan misbehaved). *)
let max_runs ~workers = (2 * workers) + 2

let run_one ~workers ~mode ~policy (plan : Fault.Plan.t) =
  let config =
    Wool.Config.make ~workers ~mode ~policy ~faults:plan ~seed:plan.seed ()
  in
  let pool = Wool.create ~config () in
  let expect = fib_serial fib_arg in
  let violations = ref [] in
  let runs = ref 0 in
  let exn_runs = ref 0 in
  let add v = violations := !violations @ v in
  (* Two lifecycle submissions ride every episode: one pre-cancelled,
     one already past its deadline. Their drop sites (Cancel / Expire)
     are in every random plan's site pool, so delays and stalls land
     inside the drop window too; the bodies must never run and the
     tickets must settle to the matching outcome. *)
  let dropped_ran = Atomic.make 0 in
  let cancelled_token = Wool.Cancel.create () in
  Wool.Cancel.cancel cancelled_token;
  let tk_cancel =
    Wool.Submit.submit ~cancel:cancelled_token pool
      (fun _ctx -> Atomic.incr dropped_ran)
  in
  let tk_expire =
    Wool.Submit.submit ~deadline:(Clock.now_ns () - 1) pool
      (fun _ctx -> Atomic.incr dropped_ran)
  in
  let (), elapsed_ns =
    Clock.time (fun () ->
        (* Run until clean: an injected exception must leave the pool
           quiescent and reusable, so each retry doubles as the
           reusability check. *)
        let rec go () =
          incr runs;
          match Wool.run pool (fun ctx -> fib_task ctx fib_arg) with
          | v ->
              if v <> expect then
                add
                  [
                    Printf.sprintf "wrong result: fib(%d) = %d, expected %d"
                      fib_arg v expect;
                  ]
          | exception Fault.Injected _ ->
              incr exn_runs;
              add (Wool.Invariants.check pool);
              if !runs >= max_runs ~workers then
                add [ "exception rule never exhausted; giving up" ]
              else go ()
        in
        go ();
        add (Wool.Invariants.check pool))
  in
  (match Wool.Submit.await tk_cancel with
  | () -> add [ "cancelled submission completed" ]
  | exception Wool.Cancel.Cancelled -> ()
  | exception e ->
      add
        [
          Printf.sprintf "cancelled submission raised %s"
            (Printexc.to_string e);
        ]);
  (match Wool.Submit.await tk_expire with
  | () -> add [ "expired submission completed" ]
  | exception Wool.Submission_expired -> ()
  | exception e ->
      add
        [
          Printf.sprintf "expired submission raised %s" (Printexc.to_string e);
        ]);
  if Atomic.get dropped_ran <> 0 then
    add [ "a dropped submission body executed" ];
  let fires = Fault.Stats.total (Wool.fault_stats pool) in
  Wool.shutdown pool;
  {
    plan;
    mode;
    policy;
    elapsed_ns;
    runs = !runs;
    exn_runs = !exn_runs;
    fires;
    violations = !violations;
  }

let sweep ?(workers = 4) ?(seeds = 20) ?(exceptions = true) () =
  let policies = Array.of_list (Wool_policy.sweep ()) in
  let rows = ref [] in
  List.iter
    (fun mode ->
      for seed = 0 to seeds - 1 do
        let plan = Fault.Plan.random ~exceptions ~seed () in
        (* cycle the steal policies across seeds so the sweep also
           crosses plans with selector/backoff combinations *)
        let policy = policies.(seed mod Array.length policies) in
        rows := run_one ~workers ~mode ~policy plan :: !rows
      done)
    all_modes;
  List.rev !rows

let print_rows rows =
  let tbl =
    Table.create ~title:"fault-injection stress sweep"
      ~header:
        [ "mode"; "plan"; "policy"; "ms"; "fires"; "runs"; "exn"; "invariants" ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          Wool.Mode.name r.mode;
          r.plan.Fault.Plan.name;
          Wool_policy.name r.policy;
          Table.cell_f ~dec:1 (r.elapsed_ns /. 1e6);
          Table.cell_i r.fires;
          Table.cell_i r.runs;
          Table.cell_i r.exn_runs;
          (match r.violations with
          | [] -> "ok"
          | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs));
        ])
    rows;
  Table.print tbl;
  let bad = List.filter (fun r -> r.violations <> []) rows in
  List.iter
    (fun r ->
      Printf.printf "!! %s / %s / %s:\n"
        (Wool.Mode.name r.mode)
        r.plan.Fault.Plan.name
        (Wool_policy.name r.policy);
      List.iter (fun v -> Printf.printf "!!   %s\n" v) r.violations)
    bad;
  let fires = List.fold_left (fun acc r -> acc + r.fires) 0 rows in
  let exn_runs = List.fold_left (fun acc r -> acc + r.exn_runs) 0 rows in
  Printf.printf
    "%d plan runs, %d fault fires, %d injected-exception runs, %d with \
     violations\n"
    (List.length rows) fires exn_runs (List.length bad);
  List.length bad

(* ---- disabled-hook overhead ---- *)

(* Compare fib wall time across the three fault-path states: hooks
   compiled out of the run ([faults = None]), hooks live with an empty
   plan ([Some Plan.none]), and a no-op watchdog sampling alongside.
   Reports the minimum over [reps] runs each — the noise floor of a
   shared box is one-sided, so the min tracks the code cost where a
   median still soaks up scheduler interference. *)
let overhead ?(workers = 4) ?(arg = 30) ?(reps = 9) () =
  let time_config label config =
    let pool = Wool.create ~config () in
    (* warm-up run to fault in domains and code paths *)
    ignore (Wool.run pool (fun ctx -> fib_task ctx 20) : int);
    let best = ref infinity in
    for _ = 1 to reps do
      let v, ns =
        Clock.time (fun () -> Wool.run pool (fun ctx -> fib_task ctx arg))
      in
      ignore (Sys.opaque_identity v : int);
      if ns < !best then best := ns
    done;
    Wool.shutdown pool;
    (label, !best)
  in
  let base = time_config "faults off" (Wool.Config.make ~workers ()) in
  let empty =
    time_config "faults on, empty plan"
      (Wool.Config.make ~workers ~faults:Fault.Plan.none ())
  in
  let watched =
    time_config "watchdog on (1s threshold)"
      (Wool.Config.make ~workers ~watchdog_interval_ns:100_000_000
         ~watchdog_stalls:10 ())
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "disabled-path overhead: fib(%d), %d workers, min of \
                         %d" arg workers reps)
      ~header:[ "configuration"; "ms"; "vs off" ]
      ()
  in
  let _, base_ns = base in
  List.iter
    (fun (label, ns) ->
      Table.add_row tbl
        [
          label;
          Table.cell_f ~dec:2 (ns /. 1e6);
          Printf.sprintf "%+.1f%%" ((ns /. base_ns -. 1.) *. 100.);
        ])
    [ base; empty; watched ];
  Table.print tbl;
  [ base; empty; watched ]
