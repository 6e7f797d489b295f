module E = Wool_sim.Engine
module P = Wool_sim.Policy
module W = Wool_workloads.Workload
module Tt = Wool_ir.Task_tree

type series = { label : string; speedup_by_p : (int * float) list }
type study = { title : string; series : series list }

let procs = [ 1; 2; 4; 8 ]

let default_workload () = W.stress ~reps:16 ~height:8 ~leaf_iters:256 ()

let abs_speedups ?victim_selection policy wl =
  let root = W.root wl in
  let work = float_of_int (Tt.work root) in
  List.map
    (fun p ->
      let r = E.run ?victim_selection ~policy ~workers:p root in
      (p, work /. float_of_int r.E.time))
    procs

let blocked_join ?workload () =
  let wl = match workload with Some w -> w | None -> default_workload () in
  let mk label blocked_join =
    {
      label;
      speedup_by_p =
        abs_speedups
          (P.v ~name:label
             ~flavor:
               (P.Steal_child
                  { sync = P.Nolock_state; blocked_join;
                    publicity = P.Adaptive 4 })
             ~costs:Wool_sim.Costs.wool ())
          wl;
    }
  in
  {
    title = "blocked joins on " ^ W.label wl;
    series =
      [
        mk "leapfrog" P.Leapfrog;
        mk "random-steal" P.Random_steal;
        mk "plain-wait" P.Plain_wait;
      ];
  }

let public_window ?workload () =
  let wl = match workload with Some w -> w | None -> default_workload () in
  let mk label publicity =
    {
      label;
      speedup_by_p =
        abs_speedups
          (P.v ~name:label
             ~flavor:
               (P.Steal_child
                  { sync = P.Nolock_state; blocked_join = P.Leapfrog;
                    publicity })
             ~costs:Wool_sim.Costs.wool ())
          wl;
    }
  in
  {
    title = "public window on " ^ W.label wl;
    series =
      List.map
        (fun w ->
          mk (Bench_json.publicity_name (Wool.Adaptive w)) (P.Adaptive w))
        [ 1; 2; 4; 8; 16 ]
      @ [ mk (Bench_json.publicity_name Wool.All_public) P.All_public ];
  }

let victim_selection ?workload () =
  let wl = match workload with Some w -> w | None -> default_workload () in
  let mk label sel =
    { label; speedup_by_p = abs_speedups ~victim_selection:sel P.wool wl }
  in
  {
    title = "victim selection on " ^ W.label wl;
    series =
      [
        mk "random" E.Random_victim;
        mk "round-robin" E.Round_robin;
        mk "last-victim" E.Last_victim;
        mk "leapfrog-biased" E.Leapfrog_biased;
      ];
  }

let idle_backoff ?workload () =
  let wl = match workload with Some w -> w | None -> default_workload () in
  let root = W.root wl in
  let work = float_of_int (Tt.work root) in
  let mk bo =
    {
      label = Wool_policy.Backoff.name bo;
      speedup_by_p =
        List.map
          (fun p ->
            let sp = Wool_policy.make ~backoff:bo () in
            let r = E.run ~steal_policy:sp ~policy:P.wool ~workers:p root in
            (p, work /. float_of_int r.E.time))
          procs;
    }
  in
  {
    title = "idle backoff on " ^ W.label wl;
    series = List.map mk Wool_policy.Backoff.all;
  }

let steal_batch ?workload () =
  let wl = match workload with Some w -> w | None -> default_workload () in
  let root = W.root wl in
  let work = float_of_int (Tt.work root) in
  let mk batch =
    {
      label = Printf.sprintf "batch %d" batch;
      speedup_by_p =
        List.map
          (fun p ->
            let r = E.run ~steal_batch:batch ~policy:P.wool ~workers:p root in
            (p, work /. float_of_int r.E.time))
          procs;
    }
  in
  {
    title = "steal batch size on " ^ W.label wl;
    series = List.map mk [ 1; 2; 4 ];
  }

let numa ?workload () =
  let wl = match workload with Some w -> w | None -> default_workload () in
  let root = W.root wl in
  let work = float_of_int (Tt.work root) in
  let mk label sockets sel =
    {
      label;
      speedup_by_p =
        List.map
          (fun p ->
            let r =
              E.run ~sockets ~victim_selection:sel ~policy:P.wool ~workers:p
                root
            in
            (p, work /. float_of_int r.E.time))
          procs;
    }
  in
  {
    title = "dual socket on " ^ W.label wl;
    series =
      [
        mk "1 socket, random" 1 E.Random_victim;
        mk "2 sockets, random" 2 E.Random_victim;
        mk "2 sockets, socket-local" 2 E.Socket_local;
      ];
  }

let print_study s =
  let t =
    Wool_util.Table.create ~title:s.title
      ~header:("variant" :: List.map string_of_int procs)
      ()
  in
  List.iter
    (fun sr ->
      Wool_util.Table.add_row t
        (sr.label
        :: List.map
             (fun (_, v) -> Wool_util.Table.cell_f ~dec:2 v)
             sr.speedup_by_p))
    s.series;
  Wool_util.Table.print t

let run () =
  print_endline "== Ablations of the design choices ==";
  print_study (blocked_join ());
  print_study (public_window ());
  print_study (public_window ~workload:(W.fib ~reps:1 24) ());
  print_study (victim_selection ());
  print_study (idle_backoff ());
  print_study (steal_batch ());
  print_study (numa ())
