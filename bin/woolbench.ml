(* woolbench: regenerate the paper's tables and figures.

   `woolbench list` shows the available experiments; `woolbench <key>`
   runs one; `woolbench all` runs everything (as the final harness does).
   `woolbench trace <workload>` runs a workload with scheduler tracing on
   and writes a Chrome trace_event JSON next to a summary report.
   `woolbench policy` runs the steal-policy grid: the simulated
   locality grid, then every victim selector on a real pool.
   `woolbench check` model-checks the protocols and fuzzes seeded
   histories, some under fault plans, against a sequential oracle.
   `woolbench bench <workload|all>` runs the tier-1 benchmark matrix and
   writes a schema-stable BENCH_<date>.json for the perf trajectory.
   `woolbench serve` drives a server-mode pool with open-loop Poisson
   traffic from external producer domains and reports ingress verdicts
   next to sojourn-latency percentiles. *)

open Cmdliner

let run_experiment keys =
  match keys with
  | [] | [ "all" ] ->
      Wool_report.Registry.run_all ();
      `Ok ()
  | [ "list" ] ->
      List.iter
        (fun e ->
          Printf.printf "%-8s %s\n" e.Wool_report.Registry.key
            e.Wool_report.Registry.title)
        Wool_report.Registry.all;
      `Ok ()
  | keys ->
      let missing =
        List.filter (fun k -> Wool_report.Registry.find k = None) keys
      in
      if missing <> [] then
        `Error
          ( false,
            Printf.sprintf "unknown experiment(s): %s (try `woolbench list`)"
              (String.concat ", " missing) )
      else begin
        List.iter
          (fun k ->
            match Wool_report.Registry.find k with
            | Some e -> e.Wool_report.Registry.run ()
            | None -> assert false)
          keys;
        `Ok ()
      end

let keys_arg =
  let doc =
    Printf.sprintf "Experiments to run: list | all | %s."
      (String.concat " " (Wool_report.Registry.keys ()))
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let experiments_term = Term.(ret (const run_experiment $ keys_arg))

let trace_cmd =
  let workload_arg =
    let doc =
      Printf.sprintf "Workload to trace: %s."
        (String.concat " | " Wool_report.Trace_summary.workloads)
    in
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc)
  in
  let workers_arg =
    let doc = "Number of worker domains." in
    Arg.(value & opt int 4 & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Output path for the Chrome trace_event JSON." in
    Arg.(
      value & opt string "trace.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc = "Re-read the emitted file and validate it as JSON." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run workers out check workload =
    if workers < 1 then `Error (false, "--workers must be at least 1")
    else
      match Wool_report.Trace_summary.run ~workers ~out ~check workload with
      | () -> `Ok ()
      | exception Failure msg -> `Error (false, msg)
      | exception Sys_error msg -> `Error (false, msg)
  in
  let doc = "trace a workload and write a Chrome trace_event JSON" in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(ret (const run $ workers_arg $ out_arg $ check_arg $ workload_arg))

let policy_cmd =
  let workers_arg =
    let doc = "Worker domains for the real-pool half." in
    Arg.(value & opt int 4 & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Also write the simulated grid as a JSON snapshot." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let compare_arg =
    let doc =
      "Diff the freshly computed grid against a committed snapshot (e.g. \
       POLICY_GRID.json); any cell drift is an error."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"BASELINE.json" ~doc)
  in
  let run workers out compare =
    if workers < 1 then `Error (false, "--workers must be at least 1")
    else
      let module G = Wool_report.Policy_grid in
      match
        let g = G.compute () in
        G.print g;
        (match out with
        | Some path ->
            G.write_file path g;
            Printf.printf "wrote %s\n" path
        | None -> ());
        match compare with
        | None -> Ok ()
        | Some path -> (
            match G.read_file path with
            | Error msg -> Error msg
            | Ok baseline -> (
                match G.compare_grids ~baseline ~fresh:g with
                | [] ->
                    Printf.printf "grid matches %s (%d cells)\n" path
                      (List.length g.G.cells);
                    Ok ()
                | issues ->
                    List.iter (Printf.printf "MISMATCH %s\n") issues;
                    Error
                      (Printf.sprintf "%d grid mismatch(es) against %s"
                         (List.length issues) path)))
      with
      | Ok () -> (
          match G.real_check ~workers () with
          | () -> `Ok ()
          | exception Failure msg -> `Error (false, msg))
      | Error msg -> `Error (false, msg)
      | exception Failure msg -> `Error (false, msg)
      | exception Sys_error msg -> `Error (false, msg)
  in
  let doc =
    "simulate flat vs hierarchical stealing at 16/32/64 virtual cores on a \
     4-socket topology, then run every victim selector on a real pool"
  in
  Cmd.v
    (Cmd.info "policy" ~doc)
    Term.(ret (const run $ workers_arg $ out_arg $ compare_arg))

(* [bench --compare]'s verdict that a cell regressed: its own code, so
   a caller can tell it from a usage error or a limit (124). *)
let regressed_exit = 1

let bench_cmd =
  let workloads_arg =
    let doc =
      Printf.sprintf "Workloads to bench: all | %s."
        (String.concat " | " Wool_report.Trace_summary.workloads)
    in
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let workers_arg =
    let doc = "Comma-separated worker counts to sweep." in
    Arg.(
      value & opt (list int) [ 1; 2; 4 ]
      & info [ "w"; "workers" ] ~docv:"N,M,..." ~doc)
  in
  let repeats_arg =
    let doc = "Timed pool runs per cell (a fresh pool each)." in
    Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let tiny_arg =
    let doc = "Use the smoke-test input sizes instead of the report sizes." in
    Arg.(value & flag & info [ "tiny" ] ~doc)
  in
  let out_arg =
    let doc = "Output path (default BENCH_<date>.json)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let compare_arg =
    let doc =
      Printf.sprintf
        "Baseline BENCH_*.json to diff against; exits %d if any cell's \
         drift-corrected new median lands beyond the baseline's p90 plus \
         10%% (whole-matrix machine drift is divided out and reported \
         first)."
        regressed_exit
    in
    Arg.(
      value & opt (some string) None & info [ "compare" ] ~docv:"FILE" ~doc)
  in
  let modes_arg =
    let doc =
      Printf.sprintf
        "Comma-separated scheduler modes to sweep (default all: %s); e.g. \
         --modes private,clev to compare two modes without the full \
         matrix."
        (String.concat "," (List.map Wool.Mode.name Wool.Mode.all))
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "modes" ] ~docv:"M,N,..." ~doc)
  in
  let run workers repeats tiny modes out compare_with workloads =
    if workers = [] || List.exists (fun w -> w < 1) workers then
      `Error (false, "--workers must be positive counts")
    else if repeats < 1 then `Error (false, "--repeats must be at least 1")
    else begin
      let size =
        if tiny then Wool_report.Exp_common.Spec.Tiny
        else Wool_report.Exp_common.Spec.Std
      in
      let date =
        let tm = Unix.gmtime (Unix.time ()) in
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      in
      match
        Wool_report.Bench_json.run ~size ~workers ~repeats ?mode_names:modes
          ?out ?compare_with ~date workloads
      with
      | 0 -> `Ok ()
      | n ->
          Printf.eprintf "woolbench: %d cell(s) regressed beyond noise\n" n;
          exit regressed_exit
      | exception Failure msg -> `Error (false, msg)
      | exception Invalid_argument msg -> `Error (false, msg)
      | exception Sys_error msg -> `Error (false, msg)
    end
  in
  let doc =
    "run the tier-1 benchmark matrix (workloads x modes x worker counts) \
     and write a schema-stable BENCH_<date>.json"
  in
  let exits =
    Cmd.Exit.info regressed_exit
      ~doc:"when $(b,--compare) flagged a cell as regressed beyond noise."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "bench" ~doc ~exits)
    Term.(
      ret
        (const run $ workers_arg $ repeats_arg $ tiny_arg $ modes_arg
        $ out_arg $ compare_arg $ workloads_arg))

let ropes_cmd =
  let workers_arg =
    let doc = "Comma-separated worker counts to sweep." in
    Arg.(
      value & opt (list int) [ 1; 2; 4 ]
      & info [ "w"; "workers" ] ~docv:"N,M,..." ~doc)
  in
  let repeats_arg =
    let doc = "Timed pool runs per arm (a fresh pool each)." in
    Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let tiny_arg =
    let doc = "Use the smoke-test input sizes instead of the report sizes." in
    Arg.(value & flag & info [ "tiny" ] ~doc)
  in
  let run workers repeats tiny =
    if workers = [] || List.exists (fun w -> w < 1) workers then
      `Error (false, "--workers must be positive counts")
    else if repeats < 1 then `Error (false, "--repeats must be at least 1")
    else begin
      let size =
        if tiny then Wool_report.Exp_common.Spec.Tiny
        else Wool_report.Exp_common.Spec.Std
      in
      match Wool_report.Rope_sweep.run ~size ~workers ~repeats () with
      | () -> `Ok ()
      | exception Failure msg -> `Error (false, msg)
      | exception Invalid_argument msg -> `Error (false, msg)
    end
  in
  let doc =
    "compare lazy (steal-pressure-driven) vs eager rope splitting across \
     every scheduler mode, and the rope workload one-liners vs their \
     hand-rolled spawn trees"
  in
  Cmd.v
    (Cmd.info "ropes" ~doc)
    Term.(ret (const run $ workers_arg $ repeats_arg $ tiny_arg))

let serve_cmd =
  let workers_arg =
    let doc = "Number of worker domains (all spawned: server mode)." in
    Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let producers_arg =
    let doc = "External producer domains submitting concurrently." in
    Arg.(value & opt int 2 & info [ "producers" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Aggregate offered load in jobs per second." in
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"HZ" ~doc)
  in
  let seconds_arg =
    let doc = "Load duration per (mode, arrival) cell." in
    Arg.(value & opt float 1.0 & info [ "seconds" ] ~docv:"S" ~doc)
  in
  let capacity_arg =
    let doc = "Injection-lane slots (Reject admission when full)." in
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Arrival-process RNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let arrivals_arg =
    let doc =
      "Comma-separated arrival patterns to run: sustained | bursty | \
       overload (default all three). Overload runs each mode twice, under \
       Adaptive and Block admission."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "arrivals" ] ~docv:"A,B,..." ~doc)
  in
  let out_arg =
    let doc = "Output path (default SERVE_<date>.json)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc = "Re-read the emitted file and validate it as JSON." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run workers producers rate_hz duration_s lane_capacity arrivals seed
      out check =
    if workers < 1 then `Error (false, "--workers must be at least 1")
    else if producers < 1 then
      `Error (false, "--producers must be at least 1")
    else if rate_hz <= 0. then `Error (false, "--rate must be positive")
    else if duration_s <= 0. then
      `Error (false, "--seconds must be positive")
    else begin
      let date =
        let tm = Unix.gmtime (Unix.time ()) in
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      in
      let parse_arrival = function
        | "sustained" -> Ok Wool_report.Serve_load.Sustained
        | "bursty" -> Ok Wool_report.Serve_load.Bursty
        | "overload" -> Ok Wool_report.Serve_load.Overload
        | a -> Error a
      in
      let arrivals =
        Option.map (List.map parse_arrival) arrivals
      in
      match arrivals with
      | Some l
        when List.exists (function Error _ -> true | Ok _ -> false) l ->
          let bad =
            List.filter_map
              (function Error a -> Some a | Ok _ -> None)
              l
          in
          `Error
            ( false,
              Printf.sprintf
                "unknown arrival(s): %s (try sustained, bursty, overload)"
                (String.concat ", " bad) )
      | _ -> (
          let arrivals =
            Option.map
              (List.filter_map
                 (function Ok a -> Some a | Error _ -> None))
              arrivals
          in
          match
            Wool_report.Serve_load.run ~producers ~workers ~rate_hz
              ~duration_s ~lane_capacity ?arrivals ~seed ?out ~check ~date ()
          with
          | 0 -> `Ok ()
          | n ->
              `Error
                ( false,
                  Printf.sprintf "%d cell(s) violated pool invariants" n )
          | exception Failure msg -> `Error (false, msg)
          | exception Invalid_argument msg -> `Error (false, msg)
          | exception Sys_error msg -> `Error (false, msg))
    end
  in
  let doc =
    "drive a server-mode pool with open-loop Poisson traffic (sustained, \
     bursty, overload) from external producer domains; report \
     admit/reject/shed/expire/cancel counts, p50/p99 sojourn latency, and \
     goodput per scheduler mode and admission policy"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ workers_arg $ producers_arg $ rate_arg $ seconds_arg
        $ capacity_arg $ arrivals_arg $ seed_arg $ out_arg $ check_arg))

let check_cmd =
  let histories_arg =
    let doc = "Fuzzed histories (consecutive seeds; 0 skips the fuzzer)." in
    Arg.(value & opt int 100 & info [ "histories" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "First fuzzing seed." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let no_scenarios_arg =
    let doc = "Skip the exhaustive model-checking scenarios." in
    Arg.(value & flag & info [ "no-scenarios" ] ~doc)
  in
  let max_schedules_arg =
    let doc = "Schedule-exploration cap per model-checking scenario." in
    Arg.(
      value & opt int 3_000_000 & info [ "max-schedules" ] ~docv:"N" ~doc)
  in
  let max_seconds_arg =
    let doc =
      "Hard wall-clock limit; the process exits 124 if checking is still \
       running (a wedged history is itself a scheduler bug). 0 disables."
    in
    Arg.(value & opt int 0 & info [ "max-seconds" ] ~docv:"S" ~doc)
  in
  let run histories seed0 no_scenarios max_schedules max_seconds =
    if histories < 0 then `Error (false, "--histories must be non-negative")
    else if max_schedules < 1 then
      `Error (false, "--max-schedules must be at least 1")
    else begin
      if max_seconds > 0 then begin
        (* watchdog for the watchdog: a detached domain that kills the
           process if checking wedges (never joined; exit ends it). The
           deadline is monotonic — a wall-clock step must not fire or
           defer it. *)
        let deadline =
          Wool_util.Clock.now_ns () + (max_seconds * 1_000_000_000)
        in
        ignore
          (Domain.spawn (fun () ->
               while Wool_util.Clock.now_ns () < deadline do
                 Unix.sleepf 0.2
               done;
               prerr_endline
                 ("woolbench check: wall-clock limit hit in "
                 ^ Wool_report.Check_fuzz.in_flight ());
               exit 124)
            : unit Domain.t)
      end;
      let module C = Wool_report.Check_fuzz in
      let failed =
        if no_scenarios then 0 else C.run_scenarios ~max_schedules ()
      in
      let cells = C.print_matrix (C.kernel_matrix ()) in
      let bad =
        if histories = 0 then 0
        else C.print_rows (C.fuzz ~histories ~seed0 ())
      in
      if failed = 0 && cells = 0 && bad = 0 then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf
              "%d scenario(s) failed, %d kernel cell(s) failed, %d \
               history(s) violated the oracle"
              failed cells bad )
    end
  in
  let doc =
    "model-check the shipped protocols exhaustively on bounded scenarios, \
     run every kernel on every real scheduler against serial, then fuzz \
     seeded multi-domain histories against a sequential oracle, a third \
     of them under timing faults and a third under injected task \
     exceptions"
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run $ histories_arg $ seed_arg $ no_scenarios_arg
        $ max_schedules_arg $ max_seconds_arg))

(* A Cmd.group would reject the free-form experiment keys the default
   term consumes ("woolbench list", "woolbench fig1 table2"), so route
   the named subcommands by hand and keep everything else on the
   original term. `woolbench help [cmd]` is rewritten to cmdliner's
   `[cmd] --help` form first — the hand routing used to swallow it as an
   unknown experiment key. *)
let () =
  let doc =
    "regenerate the tables and figures of the Wool paper; `woolbench \
     trace <workload>` records a scheduler trace; `woolbench policy` \
     runs the steal-policy grid; `woolbench check` model-checks the \
     scheduler and fuzzes it under fault plans; `woolbench \
     serve` load-tests the external-submission ingress; `woolbench ropes` \
     compares lazy vs eager rope splitting"
  in
  let subcommands =
    [
      trace_cmd; policy_cmd; bench_cmd; ropes_cmd; serve_cmd; check_cmd;
    ]
  in
  let argv =
    match Array.to_list Sys.argv with
    | exe :: "help" :: rest -> Array.of_list ((exe :: rest) @ [ "--help" ])
    | _ -> Sys.argv
  in
  let is_subcommand =
    Array.length argv > 1
    && List.exists (fun c -> Cmd.name c = argv.(1)) subcommands
  in
  let code =
    if is_subcommand then
      Cmd.eval ~argv (Cmd.group (Cmd.info "woolbench" ~doc) subcommands)
    else Cmd.eval ~argv (Cmd.v (Cmd.info "woolbench" ~doc) experiments_term)
  in
  exit code
