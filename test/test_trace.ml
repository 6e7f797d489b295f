module T = Wool_sim.Trace
module E = Wool_sim.Engine
module P = Wool_sim.Policy
module W = Wool_workloads.Workload
module Ev = Wool_trace.Event
module Ring = Wool_trace.Ring
module Json = Wool_trace.Json
module Chrome = Wool_trace.Chrome
module Summary = Wool_trace.Summary

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_create_validation () =
  Alcotest.check_raises "workers" (Invalid_argument "Trace.create: workers must be positive")
    (fun () -> ignore (T.create ~workers:0 ~horizon:10 ()));
  Alcotest.check_raises "horizon" (Invalid_argument "Trace.create: horizon must be positive")
    (fun () -> ignore (T.create ~workers:1 ~horizon:0 ()));
  Alcotest.check_raises "buckets" (Invalid_argument "Trace.create: buckets must be positive")
    (fun () -> ignore (T.create ~buckets:0 ~workers:1 ~horizon:10 ()))

let test_record_and_dominant () =
  let t = T.create ~buckets:10 ~workers:2 ~horizon:1000 () in
  Alcotest.(check (option int)) "empty" None (T.dominant t ~worker:0 ~bucket:0);
  T.record t ~worker:0 ~start:0 ~cycles:50 ~category:2;
  T.record t ~worker:0 ~start:50 ~cycles:10 ~category:3;
  (* category 2 dominates bucket 0 *)
  Alcotest.(check (option int)) "dominant" (Some 2) (T.dominant t ~worker:0 ~bucket:0);
  Alcotest.(check (option int)) "other worker untouched" None
    (T.dominant t ~worker:1 ~bucket:0)

let test_record_spans_buckets () =
  let t = T.create ~buckets:10 ~workers:1 ~horizon:1000 () in
  (* 300 cycles from t=0 covers buckets 0..2 *)
  T.record t ~worker:0 ~start:0 ~cycles:300 ~category:2;
  List.iter
    (fun b ->
      Alcotest.(check (option int))
        (Printf.sprintf "bucket %d" b)
        (Some 2)
        (T.dominant t ~worker:0 ~bucket:b))
    [ 0; 1; 2 ];
  Alcotest.(check (option int)) "bucket 3 empty" None
    (T.dominant t ~worker:0 ~bucket:3)

let test_clamping () =
  let t = T.create ~buckets:4 ~workers:1 ~horizon:100 () in
  (* beyond the horizon: lands in the last bucket, no exception *)
  T.record t ~worker:0 ~start:500 ~cycles:10 ~category:1;
  Alcotest.(check (option int)) "clamped" (Some 1) (T.dominant t ~worker:0 ~bucket:3)

let test_utilization () =
  let t = T.create ~buckets:10 ~workers:2 ~horizon:1000 () in
  T.record t ~worker:0 ~start:0 ~cycles:500 ~category:2;
  Alcotest.(check (float 1e-9)) "half busy" 0.5 (T.utilization t ~worker:0);
  Alcotest.(check (float 1e-9)) "idle worker" 0.0 (T.utilization t ~worker:1)

let test_record_validation () =
  let t = T.create ~workers:1 ~horizon:100 () in
  Alcotest.check_raises "bad worker" (Invalid_argument "Trace.record: bad worker")
    (fun () -> T.record t ~worker:5 ~start:0 ~cycles:1 ~category:0);
  Alcotest.check_raises "bad category" (Invalid_argument "Trace.record: bad category")
    (fun () -> T.record t ~worker:0 ~start:0 ~cycles:1 ~category:9)

let test_render () =
  let t = T.create ~buckets:20 ~workers:2 ~horizon:1000 () in
  T.record t ~worker:0 ~start:0 ~cycles:900 ~category:2;
  T.record t ~worker:1 ~start:0 ~cycles:200 ~category:3;
  let s = T.render t in
  Alcotest.(check bool) "worker rows" true (contains s "w0" && contains s "w1");
  Alcotest.(check bool) "app glyph" true (contains s "#");
  Alcotest.(check bool) "steal glyph" true (contains s ".");
  Alcotest.(check bool) "legend" true (contains s "legend")

let test_engine_integration () =
  (* two-pass: measure, then trace the identical (deterministic) run *)
  let root = W.root (W.stress ~reps:4 ~height:6 ~leaf_iters:1024 ()) in
  let first = E.run ~seed:5 ~policy:P.wool ~workers:4 root in
  let trace = T.create ~workers:4 ~horizon:first.E.time () in
  let second = E.run ~seed:5 ~trace ~policy:P.wool ~workers:4 root in
  Alcotest.(check int) "identical replay" first.E.time second.E.time;
  Alcotest.(check int) "same trace hash" first.E.trace_hash second.E.trace_hash;
  (* worker 0 starts the root: it must be busy early *)
  Alcotest.(check bool) "worker 0 active" true
    (T.utilization trace ~worker:0 > 0.5);
  Alcotest.(check bool) "renders" true (String.length (T.render trace) > 100)

(* ---- shared event vocabulary (Wool_trace) ---- *)

let check_event msg (a : Ev.t) (b : Ev.t) =
  Alcotest.(check (list int))
    msg
    [ a.Ev.ts; a.Ev.worker; Ev.tag_to_int a.Ev.tag; a.Ev.a; a.Ev.b ]
    [ b.Ev.ts; b.Ev.worker; Ev.tag_to_int b.Ev.tag; b.Ev.a; b.Ev.b ]

let test_tag_round_trips () =
  Alcotest.(check int) "n_tags" Ev.n_tags (Array.length Ev.all_tags);
  Alcotest.(check int) "sixteen tags" 16 Ev.n_tags;
  let tag_int = function Some t -> Ev.tag_to_int t | None -> -1 in
  Array.iteri
    (fun i tag ->
      Alcotest.(check int) "to_int is the index" i (Ev.tag_to_int tag);
      Alcotest.(check int)
        (Printf.sprintf "of_int round trip %d" i)
        i
        (tag_int (Ev.tag_of_int i));
      Alcotest.(check int)
        (Printf.sprintf "of_name round trip %s" (Ev.tag_name tag))
        i
        (tag_int (Ev.tag_of_name (Ev.tag_name tag))))
    Ev.all_tags;
  Alcotest.(check int) "bad int" (-1) (tag_int (Ev.tag_of_int Ev.n_tags));
  Alcotest.(check int) "bad name" (-1) (tag_int (Ev.tag_of_name "quux"))

let event_of_string js =
  match Json.parse js with
  | Error e -> Alcotest.failf "%s: %s" js e
  | Ok t -> (
      match Ev.of_tree t with
      | Some e -> e
      | None -> Alcotest.failf "not an event: %s" js)

let test_event_json_round_trip () =
  Array.iter
    (fun tag ->
      let e = { Ev.ts = 123456789; worker = 3; tag; a = 17; b = -1 } in
      check_event (Ev.tag_name tag) e
        (event_of_string (Json.to_string (Ev.to_tree e))))
    Ev.all_tags;
  (* field order independence *)
  let e = event_of_string {|{"b":2,"a":1,"tag":"steal_ok","w":0,"ts":42}|} in
  check_event "shuffled fields" { Ev.ts = 42; worker = 0; tag = Ev.Steal_ok; a = 1; b = 2 } e;
  (* a monotonic-ns stamp above 2^53 keeps every digit *)
  let big = { Ev.ts = (1 lsl 53) + 1; worker = 1; tag = Ev.Spawn; a = 0; b = -1 } in
  let js = Json.to_string (Ev.to_tree big) in
  Alcotest.(check bool) "ts printed exactly" true (contains js {|"ts":9007199254740993|});
  check_event "ts above 2^53" big (event_of_string js);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("not an event: " ^ bad) true
        (match Json.parse bad with
        | Ok t -> Ev.of_tree t = None
        | Error _ -> true))
    [ {|{"ts":1,"w":0,"tag":"quux","a":0,"b":0}|}; {|{"ts":1,"w":0,"a":0,"b":0}|};
      {|{"ts":1.5,"w":0,"tag":"spawn","a":0,"b":0}|}; "[]" ]

let test_json_parse_rejects () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %s" bad) true
        (match Json.parse bad with Ok _ -> false | Error _ -> true))
    [ ""; "{"; "[1,]"; {|{"a":}|}; {|{"a":1}}|}; "nul"; {|"unterminated|};
      "[1 2]"; "{1:2}" ]

(* The printer and the parser agree: [parse (to_string t) = t] for
   generated trees, non-finite numbers coming back as [Null]. *)
let control_bytes = String.init 0x20 Char.chr

let json_strings =
  [| ""; "plain"; control_bytes; {|"|}; {|\|}; {|a"b\c/d|};
     "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x90\x91" |]

let json_ints = [| 0; -1; (1 lsl 53) + 1; max_int; min_int |]

let json_floats =
  [| -0.; 0.1; 1e-300; 1e300; 3.0; -2.5e-7; 5e-324; Float.max_float;
     infinity; neg_infinity; nan |]

let rec finite_only : Json.tree -> Json.tree = function
  | Num f when not (Float.is_finite f) -> Null
  | Arr l -> Arr (List.map finite_only l)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, finite_only v)) kvs)
  | t -> t

let gen_tree : Json.tree QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ oneofa json_ints; int ]);
        map
          (fun f -> Json.Num f)
          (oneof [ oneofa json_floats; map Int64.float_of_bits ui64 ]);
        map (fun s -> Json.Str s) (oneofa json_strings);
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 3) (self (n - 1))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 3)
                      (pair (oneofa json_strings) (self (n - 1)))) );
             ])

let round_trips t =
  let s = Json.to_string t in
  (not (String.exists (fun c -> Char.code c < 0x20) s))
  && Json.parse s = Ok (finite_only t)

let qcheck_json_round_trip =
  QCheck.Test.make ~name:"JSON print/parse round trip" ~count:2000
    (QCheck.make ~print:Json.to_string gen_tree)
    round_trips

let test_json_print_parse_edges () =
  let check t = Alcotest.(check bool) (Json.to_string t) true (round_trips t) in
  (* every listed string as a value and as an escaped key, every number
     on its own *)
  Array.iter (fun s -> check (Obj [ (s, Str s) ])) json_strings;
  Array.iter (fun i -> check (Int i)) json_ints;
  Array.iter (fun f -> check (Num f)) json_floats;
  Alcotest.(check string) "max_int as %d" (string_of_int max_int)
    (Json.to_string (Int max_int));
  Alcotest.(check string) "integral float keeps a fraction" "3.0"
    (Json.to_string (Num 3.));
  Alcotest.(check string) "shortest repr" "0.1" (Json.to_string (Num 0.1));
  Alcotest.(check string) "non-finite as null" "[null,null,null]"
    (Json.to_string (Arr [ Num infinity; Num neg_infinity; Num nan ]));
  match Json.parse (Json.to_string (Num (-0.))) with
  | Ok (Num f) -> Alcotest.(check bool) "-0. keeps its sign" true (1. /. f < 0.)
  | _ -> Alcotest.fail "-0. did not come back as a Num"

let test_ring_record_snapshot () =
  let r = Ring.create ~capacity:8 in
  for i = 0 to 4 do
    Ring.record r ~ts:(100 + i) ~tag:Ev.Spawn ~a:i ~b:(-1)
  done;
  Alcotest.(check int) "written" 5 (Ring.written r);
  Alcotest.(check int) "no drops" 0 (Ring.dropped r);
  let evs = Ring.snapshot r ~worker:3 in
  Alcotest.(check int) "snapshot size" 5 (Array.length evs);
  Array.iteri
    (fun i e ->
      check_event
        (Printf.sprintf "event %d" i)
        { Ev.ts = 100 + i; worker = 3; tag = Ev.Spawn; a = i; b = -1 }
        e)
    evs

let test_ring_capacity_too_large () =
  Alcotest.check_raises "max_int"
    (Invalid_argument "Ring.create: capacity too large") (fun () ->
      ignore (Ring.create ~capacity:max_int : Ring.t))

let test_ring_overflow_drops_oldest () =
  let r = Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Ring.record r ~ts:i ~tag:Ev.Steal_attempt ~a:(-1) ~b:0
  done;
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  let evs = Ring.snapshot r ~worker:0 in
  Alcotest.(check int) "keeps capacity" 4 (Array.length evs);
  Alcotest.(check (list int)) "newest survive, oldest-first" [ 6; 7; 8; 9 ]
    (Array.to_list (Array.map (fun e -> e.Ev.ts) evs));
  Ring.clear r;
  Alcotest.(check int) "clear resets" 0 (Ring.written r);
  Alcotest.(check int) "clear empties" 0 (Array.length (Ring.snapshot r ~worker:0))

let test_chrome_export_is_valid_json () =
  let events =
    [|
      { Ev.ts = 1000; worker = 0; tag = Ev.Spawn; a = 0; b = -1 };
      { Ev.ts = 2000; worker = 1; tag = Ev.Steal_ok; a = 0; b = 0 };
      { Ev.ts = 2500; worker = 0; tag = Ev.Join_stolen; a = 0; b = 1 };
    |]
  in
  let s = Chrome.to_string events in
  Alcotest.(check bool) "valid JSON" true (Result.is_ok (Json.parse s));
  Alcotest.(check bool) "traceEvents array" true (contains s "\"traceEvents\"");
  Alcotest.(check bool) "one lane per worker" true
    (contains s "worker 0" && contains s "worker 1");
  Alcotest.(check bool) "instant events" true (contains s {|"ph":"i"|});
  Alcotest.(check bool) "tag names surface" true (contains s "steal_ok")

let test_sim_event_stream () =
  let root = W.root (W.stress ~reps:4 ~height:6 ~leaf_iters:1024 ()) in
  let first = E.run ~seed:5 ~policy:P.wool ~workers:4 root in
  let trace = T.create ~workers:4 ~horizon:first.E.time () in
  let second = E.run ~seed:5 ~trace ~policy:P.wool ~workers:4 root in
  let events = T.events trace in
  Alcotest.(check bool) "events recorded" true (Array.length events > 0);
  Alcotest.(check int) "no drops" 0 (T.events_dropped trace);
  (* merged stream is time-sorted *)
  for i = 1 to Array.length events - 1 do
    Alcotest.(check bool) "sorted" true
      (events.(i - 1).Ev.ts <= events.(i).Ev.ts)
  done;
  let summary = Summary.make events in
  Alcotest.(check int) "steal_ok matches engine steals" second.E.steals
    (Summary.steals_observed summary);
  Alcotest.(check int) "leap_steal matches engine" second.E.leap_steals
    (Summary.count summary Ev.Leap_steal);
  Alcotest.(check bool) "spawns observed" true
    (Summary.count summary Ev.Spawn > 0)

let suite =
  [
    ( "trace.event",
      [
        Alcotest.test_case "tag round trips" `Quick test_tag_round_trips;
        Alcotest.test_case "event JSON round trip" `Quick test_event_json_round_trip;
        Alcotest.test_case "validator rejects junk" `Quick test_json_parse_rejects;
        Alcotest.test_case "JSON printer edge cases" `Quick
          test_json_print_parse_edges;
        QCheck_alcotest.to_alcotest qcheck_json_round_trip;
        Alcotest.test_case "ring record/snapshot" `Quick test_ring_record_snapshot;
        Alcotest.test_case "ring overflow" `Quick test_ring_overflow_drops_oldest;
        Alcotest.test_case "chrome export" `Quick test_chrome_export_is_valid_json;
        Alcotest.test_case "sim event stream" `Quick test_sim_event_stream;
        Alcotest.test_case "ring capacity too large" `Quick
          test_ring_capacity_too_large;
      ] );
    ( "trace",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "record and dominant" `Quick test_record_and_dominant;
        Alcotest.test_case "spanning buckets" `Quick test_record_spans_buckets;
        Alcotest.test_case "clamping" `Quick test_clamping;
        Alcotest.test_case "utilization" `Quick test_utilization;
        Alcotest.test_case "record validation" `Quick test_record_validation;
        Alcotest.test_case "render" `Quick test_render;
        Alcotest.test_case "engine integration" `Quick test_engine_integration;
      ] );
  ]
