(* Open-loop latency-SLO load generator ("woolbench serve"): external
   producer domains submit jobs into a server-mode pool through
   {!Wool.Submit} at scheduled Poisson arrival times — sustained,
   bursty, and overloaded — and the report gives the ingress verdicts
   (admit / reject / shed / expired / cancelled) next to sojourn-time
   percentiles and goodput (completions within the latency budget).

   Open loop means the arrival process never waits for the system:
   arrival k+1 is scheduled one exponential gap after arrival k's
   *scheduled* time, not after its completion, and a producer that falls
   behind submits back-to-back until it catches up. Latency is measured
   from the scheduled arrival, so queueing delay caused by overload is
   charged to the jobs that suffered it (no coordinated omission).

   The [Overload] arrival offers ~1.3x the pool's service capacity and
   stamps every job with a deadline; it runs twice per mode, once under
   [Block] admission (the baseline: producers park on a full lane, jobs
   go stale in the queue and expire at dequeue) and once under
   [Adaptive] admission (the feedback controller sheds at the door when
   the sojourn-latency EWMA crosses the target, so the jobs it does
   admit are still fresh enough to finish inside their budget). Every
   32nd overload submission arrives with its cancel token already set —
   an impatient client — so the cancelled column of the ledger is
   exercised too. *)

module Clock = Wool_util.Clock
module Stats = Wool_util.Stats
module Rng = Wool_util.Rng
module Table = Wool_util.Table
module Json = Wool_trace.Json

let schema_version = "wool-serve/2"

type arrival = Sustained | Bursty | Overload

let arrival_name = function
  | Sustained -> "sustained"
  | Bursty -> "bursty"
  | Overload -> "overload"

type row = {
  mode : string;
  arrival : string;
  admission : string;  (** admission policy the cell ran under *)
  offered : int;  (** submissions attempted (ingress [submitted]) *)
  admitted : int;
  rejected : int;
  shed : int;
  executed : int;
  expired : int;  (** dropped at dequeue: deadline already passed *)
  cancelled : int;  (** dropped at dequeue: token set before the run *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  throughput : float;  (** executed jobs per second of wall clock *)
  goodput : float;
      (** completions inside the per-job deadline per second; equals
          [throughput] for cells without deadlines *)
  target_ms : float;
      (** p99 sojourn target: twice the per-job deadline (0 = the cell
          has no deadline) *)
  elapsed_s : float;
  violations : string list;  (** {!Wool.Invariants.check}, post-quiesce *)
}

(* Every mode, from the canonical table. *)
let modes = List.map (fun m -> (Wool.Mode.name m, m)) Wool.Mode.all

let spin n =
  for i = 1 to n do
    ignore (Sys.opaque_identity i : int)
  done

(* ns per spin iteration, measured: the overload cell sizes its service
   time in wall-clock terms (a fraction of the offered rate), so it
   needs the spin calibrated on the machine it runs on. *)
let calibrate_spin_ns () =
  spin 200_000 (* warm up *);
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Clock.now_ns () in
    spin 1_000_000;
    let ns = float_of_int (Clock.now_ns () - t0) /. 1e6 in
    if ns < !best then best := ns
  done;
  Float.max 0.05 !best

(* Bursty traffic alternates 100ms phases at 1.8x / 0.2x the nominal
   rate — same offered average, but the on-phase overloads a lane that
   the sustained process keeps comfortably drained. *)
let burst_period_ns = 100_000_000

let effective_rate arrival rate ~now ~t_start =
  match arrival with
  | Sustained | Overload -> rate
  | Bursty ->
      if (now - t_start) / burst_period_ns mod 2 = 0 then rate *. 1.8
      else rate *. 0.2

(* One producer domain: submit at the scheduled arrival times until the
   deadline, return the tickets for the main domain to settle. When the
   cell has a latency budget every job is stamped [scheduled + budget],
   and every 32nd submission carries a pre-cancelled token. *)
let producer pool ~seed ~pi ~arrival ~rate ~t_start ~stop_at ~service_spins
    ~budget_ns () =
  let rng = Rng.make (seed + (0x9e3779 * (pi + 1))) in
  let tickets = ref [] in
  let next = ref (Clock.now_ns ()) in
  let submitted = ref 0 in
  let rec loop () =
    let now = Clock.now_ns () in
    if now >= stop_at then ()
    else if now < !next then begin
      Unix.sleepf (float_of_int (!next - now) /. 1e9);
      loop ()
    end
    else begin
      let t0 = !next in
      let deadline =
        match budget_ns with Some b -> Some (t0 + b) | None -> None
      in
      let cancel =
        if budget_ns <> None && !submitted mod 32 = 31 then begin
          let c = Wool.Cancel.create () in
          Wool.Cancel.cancel c;
          Some c
        end
        else None
      in
      let tk =
        Wool.Submit.submit ?deadline ?cancel pool
          (fun _ctx ->
            spin service_spins;
            Clock.now_ns () - t0)
      in
      incr submitted;
      tickets := tk :: !tickets;
      let r = effective_rate arrival rate ~now ~t_start in
      let u = Rng.float rng 1.0 in
      let gap_ns = Int.max 1_000 (int_of_float (-.log (1. -. u) /. r *. 1e9)) in
      next := !next + gap_ns;
      loop ()
    end
  in
  loop ();
  !tickets

let run_cell ~mode_name ~mode ~arrival ~admission ~producers ~workers
    ~rate_hz ~duration_s ~lane_capacity ~service_spins ~budget_ns
    ~admission_target_ns ~seed =
  let config =
    Wool.Config.make ~workers ~mode ~server:true
      ~injection_capacity:lane_capacity ~admission ?admission_target_ns
      ~seed ()
  in
  Wool.with_pool ~config (fun pool ->
      let t_start = Clock.now_ns () in
      let stop_at = t_start + int_of_float (duration_s *. 1e9) in
      let rate = rate_hz /. float_of_int producers in
      let doms =
        List.init producers (fun pi ->
            Domain.spawn
              (producer pool ~seed ~pi ~arrival ~rate ~t_start ~stop_at
                 ~service_spins ~budget_ns))
      in
      let tickets = List.concat_map Domain.join doms in
      let latencies =
        List.filter_map
          (fun tk ->
            match Wool.Submit.await tk with
            | ns -> Some (float_of_int ns)
            | exception Wool.Submission_rejected -> None
            | exception Wool.Submission_expired -> None
            | exception Wool.Cancel.Cancelled -> None)
          tickets
      in
      let elapsed_s = float_of_int (Clock.now_ns () - t_start) /. 1e9 in
      let ig = Wool.ingress_stats pool in
      let violations = Wool.Invariants.check pool in
      let lats = Array.of_list latencies in
      let pct p = if lats = [||] then 0. else Stats.percentile lats p /. 1e6 in
      let goodput =
        match budget_ns with
        | None -> float_of_int ig.Wool.executed /. elapsed_s
        | Some b ->
            let fb = float_of_int b in
            let good =
              Array.fold_left
                (fun acc l -> if l <= fb then acc + 1 else acc)
                0 lats
            in
            float_of_int good /. elapsed_s
      in
      {
        mode = mode_name;
        arrival = arrival_name arrival;
        admission = Wool_policy.Admission.name admission;
        offered = ig.Wool.submitted;
        admitted = ig.Wool.admitted;
        rejected = ig.Wool.rejected;
        shed = ig.Wool.shed;
        executed = ig.Wool.executed;
        expired = ig.Wool.expired;
        cancelled = ig.Wool.cancelled;
        p50_ms = pct 50.0;
        p99_ms = pct 99.0;
        p999_ms = pct 99.9;
        throughput = float_of_int ig.Wool.executed /. elapsed_s;
        goodput;
        target_ms =
          (match budget_ns with
          | None -> 0.
          | Some b -> float_of_int (2 * b) /. 1e6);
        elapsed_s;
        violations;
      })

(* The serve matrix. Sustained and bursty run under [Reject] (the
   non-blocking open-loop baseline); the overload pattern runs twice,
   [Adaptive] vs [Block], so the report shows what the feedback
   controller buys over parking producers on a full lane. *)
let cells = [
  (Sustained, Wool.Reject);
  (Bursty, Wool.Reject);
  (Overload, Wool.Adaptive);
  (Overload, Wool.Block);
]

let default_arrivals = [ Sustained; Bursty; Overload ]

let measure ?(producers = 2) ?(workers = 2) ?(rate_hz = 200.)
    ?(duration_s = 1.0) ?(lane_capacity = 64) ?(service_spins = 2_000)
    ?(arrivals = default_arrivals) ?(seed = 42) () =
  if producers < 1 then invalid_arg "Serve_load.measure: producers < 1";
  if workers < 1 then invalid_arg "Serve_load.measure: workers < 1";
  if rate_hz <= 0. then invalid_arg "Serve_load.measure: rate_hz <= 0";
  if duration_s <= 0. then invalid_arg "Serve_load.measure: duration_s <= 0";
  if arrivals = [] then invalid_arg "Serve_load.measure: no arrivals";
  let spin_ns = calibrate_spin_ns () in
  (* The overload cell offers 4x the nominal rate and sizes the service
     time so the offered work is ~1.3x the pool's capacity. The per-job
     deadline is 8 nominal service times, and the cell's p99 sojourn
     target is twice that: dropping at dequeue once a job is a deadline
     past its arrival caps the queueing half of the sojourn, and the
     other half absorbs in-service dilation (wall time stretches well
     past the calibrated spin when worker domains outnumber cores). The
     adaptive controller holds the sojourn-wait EWMA to a quarter of
     the deadline, so the jobs it admits clear the lane with most of
     their budget unspent. *)
  let ov_rate = rate_hz *. 4. in
  let ov_service_ns = 1.3 *. float_of_int workers /. ov_rate *. 1e9 in
  let ov_spins =
    Int.max 1_000 (int_of_float (ov_service_ns /. spin_ns))
  in
  let budget_ns = int_of_float (8. *. ov_service_ns) in
  List.concat_map
    (fun (mode_name, mode) ->
      List.filter_map
        (fun (arrival, admission) ->
          if not (List.mem arrival arrivals) then None
          else
            match arrival with
            | Sustained | Bursty ->
                Some
                  (run_cell ~mode_name ~mode ~arrival ~admission ~producers
                     ~workers ~rate_hz ~duration_s ~lane_capacity
                     ~service_spins ~budget_ns:None ~admission_target_ns:None
                     ~seed)
            | Overload ->
                Some
                  (run_cell ~mode_name ~mode ~arrival ~admission ~producers
                     ~workers ~rate_hz:ov_rate ~duration_s ~lane_capacity
                     ~service_spins:ov_spins ~budget_ns:(Some budget_ns)
                     ~admission_target_ns:
                       (if admission = Wool.Adaptive then
                          Some (budget_ns / 4)
                        else None)
                     ~seed))
        cells)
    modes

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

type report = {
  schema : string;
  date : string;
  producers : int;
  workers : int;
  rate_hz : float;
  duration_s : float;
  rows : row list;
}

let row_to_tree r =
  Json.Obj
    [
      ("mode", Str r.mode); ("arrival", Str r.arrival);
      ("admission", Str r.admission); ("offered", Int r.offered);
      ("admitted", Int r.admitted); ("rejected", Int r.rejected);
      ("shed", Int r.shed); ("executed", Int r.executed);
      ("expired", Int r.expired); ("cancelled", Int r.cancelled);
      ("p50_ms", Num r.p50_ms); ("p99_ms", Num r.p99_ms);
      ("p999_ms", Num r.p999_ms); ("throughput", Num r.throughput);
      ("goodput", Num r.goodput); ("target_ms", Num r.target_ms);
      ("elapsed_s", Num r.elapsed_s);
      ("violations", Int (List.length r.violations));
    ]

let to_json ~date ~producers ~workers ~rate_hz ~duration_s rows =
  Json.to_string
    (Obj
       [
         ("schema", Str schema_version); ("date", Str date);
         ("producers", Int producers); ("workers", Int workers);
         ("rate_hz", Num rate_hz); ("duration_s", Num duration_s);
         ("rows", Arr (List.map row_to_tree rows));
       ])

(* ---- decoding (schema tests) ---- *)

let ( let* ) o f = match o with Some v -> f v | None -> None

let row_of_tree t =
  let* mode = Json.string_member "mode" t in
  let* arrival = Json.string_member "arrival" t in
  let* admission = Json.string_member "admission" t in
  let* offered = Json.int_member "offered" t in
  let* admitted = Json.int_member "admitted" t in
  let* rejected = Json.int_member "rejected" t in
  let* shed = Json.int_member "shed" t in
  let* executed = Json.int_member "executed" t in
  let* expired = Json.int_member "expired" t in
  let* cancelled = Json.int_member "cancelled" t in
  let* p50_ms = Json.float_member "p50_ms" t in
  let* p99_ms = Json.float_member "p99_ms" t in
  let* p999_ms = Json.float_member "p999_ms" t in
  let* throughput = Json.float_member "throughput" t in
  let* goodput = Json.float_member "goodput" t in
  let* target_ms = Json.float_member "target_ms" t in
  let* elapsed_s = Json.float_member "elapsed_s" t in
  let* violations = Json.int_member "violations" t in
  Some
    {
      mode; arrival; admission; offered; admitted; rejected; shed; executed;
      expired; cancelled; p50_ms; p99_ms; p999_ms; throughput; goodput;
      target_ms; elapsed_s;
      violations = List.init violations (fun i -> Printf.sprintf "v%d" i);
    }

let of_json body =
  match Json.parse body with
  | Error msg -> Error msg
  | Ok t -> (
      let report =
        let* schema = Json.string_member "schema" t in
        if schema <> schema_version then None
        else
          let* date = Json.string_member "date" t in
          let* producers = Json.int_member "producers" t in
          let* workers = Json.int_member "workers" t in
          let* rate_hz = Json.float_member "rate_hz" t in
          let* duration_s = Json.float_member "duration_s" t in
          let* rows = Json.list_member "rows" t in
          let rows = List.map row_of_tree rows in
          if List.mem None rows then None
          else
            Some
              {
                schema; date; producers; workers; rate_hz; duration_s;
                rows = List.filter_map Fun.id rows;
              }
      in
      match report with
      | Some r -> Ok r
      | None ->
          Error
            (Printf.sprintf "not a %s document (or missing fields)"
               schema_version))

(* ------------------------------------------------------------------ *)
(* Rendering and driver                                                *)

let print_rows rows =
  let tbl =
    Table.create ~title:"open-loop ingress load (latency = sojourn, ms)"
      ~header:
        [
          "mode"; "arrival"; "adm"; "offered"; "admit"; "reject"; "shed";
          "expire"; "cancel"; "exec"; "p50"; "p99"; "tgt"; "good/s";
          "oracle";
        ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.mode; r.arrival; r.admission; Table.cell_i r.offered;
          Table.cell_i r.admitted; Table.cell_i r.rejected;
          Table.cell_i r.shed; Table.cell_i r.expired;
          Table.cell_i r.cancelled; Table.cell_i r.executed;
          Table.cell_f ~dec:2 r.p50_ms; Table.cell_f ~dec:2 r.p99_ms;
          (if r.target_ms = 0. then "-" else Table.cell_f ~dec:1 r.target_ms);
          Table.cell_f ~dec:0 r.goodput;
          (match r.violations with
          | [] -> "ok"
          | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs));
        ])
    rows;
  Table.print tbl;
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          Printf.printf "!! %s/%s/%s: %s\n" r.mode r.arrival r.admission v)
        r.violations)
    rows;
  List.length (List.filter (fun r -> r.violations <> []) rows)

let default_out ~date = Printf.sprintf "SERVE_%s.json" date

let run ?producers ?workers ?rate_hz ?duration_s ?lane_capacity
    ?service_spins ?arrivals ?seed ?out ?(check = false) ~date () =
  let rows =
    measure ?producers ?workers ?rate_hz ?duration_s ?lane_capacity
      ?service_spins ?arrivals ?seed ()
  in
  let bad = print_rows rows in
  let producers = Option.value ~default:2 producers in
  let workers = Option.value ~default:2 workers in
  let rate_hz = Option.value ~default:200. rate_hz in
  let duration_s = Option.value ~default:1.0 duration_s in
  let body = to_json ~date ~producers ~workers ~rate_hz ~duration_s rows in
  let out = match out with Some p -> p | None -> default_out ~date in
  Out_channel.with_open_bin out (fun oc -> output_string oc body);
  Printf.printf "wrote %s (%d rows)\n" out (List.length rows);
  if check then begin
    match of_json (In_channel.with_open_bin out In_channel.input_all) with
    | Ok _ -> print_endline "check: re-read JSON parses as wool-serve/2"
    | Error msg -> failwith (Printf.sprintf "check: %s: %s" out msg)
  end;
  bad
