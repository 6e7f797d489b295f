(* Spans recorded by the benchmark's own code around its calls into each
   layer, for a traced run. Every domain appends to a buffer of its own,
   so recording takes no lock; the buffers are read, and written out as
   Chrome trace_event JSON, only once the pools that filled them are
   quiescent. Spans of one spawn, or of one request, share an id. *)

type kind =
  | Setup
  | Solve
  | Spawn
  | Join
  | Leaf
  | Submit
  | Job
  | Await
  | Empty  (** the cost of recording a span, measured and then cleared *)

let index = function
  | Setup -> 0
  | Solve -> 1
  | Spawn -> 2
  | Join -> 3
  | Leaf -> 4
  | Submit -> 5
  | Job -> 6
  | Await -> 7
  | Empty -> 8

let names =
  [|
    "setup"; "solve"; "spawn"; "join"; "leaf"; "submit"; "job"; "await"; "empty";
  |]

let nkinds = Array.length names

(* Spans kept per domain for the trace file and for medians; totals and
   counts per kind keep accumulating past it. *)
let capacity = 1 lsl 15

type buf = {
  tid : int;
  kinds : int array;
  ids : int array;
  t0s : int array;
  t1s : int array;
  mutable len : int;
  mutable dropped : int;
  total_ns : int array;
  count : int array;
  mutable calls : int;  (** sampling counter of the traced kernels *)
}

let registry = ref []
let lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect lock (fun () ->
          let b =
            {
              tid = List.length !registry;
              kinds = Array.make capacity 0;
              ids = Array.make capacity 0;
              t0s = Array.make capacity 0;
              t1s = Array.make capacity 0;
              len = 0;
              dropped = 0;
              total_ns = Array.make nkinds 0;
              count = Array.make nkinds 0;
              calls = 0;
            }
          in
          registry := b :: !registry;
          b))

let mine () = Domain.DLS.get key
let buffers () = Mutex.protect lock (fun () -> List.rev !registry)

let record b kind id t0 t1 =
  let k = index kind in
  b.total_ns.(k) <- b.total_ns.(k) + (t1 - t0);
  b.count.(k) <- b.count.(k) + 1;
  if b.len < capacity then begin
    let i = b.len in
    b.kinds.(i) <- k;
    b.ids.(i) <- id;
    b.t0s.(i) <- t0;
    b.t1s.(i) <- t1;
    b.len <- i + 1
  end
  else b.dropped <- b.dropped + 1

let span kind id f =
  let t0 = Measure.now_ns () in
  let r = f () in
  record (mine ()) kind id t0 (Measure.now_ns ());
  r

(* An id unique across domains: the buffer's tid above the local count. *)
let fresh_id b = (b.tid lsl 40) lor b.calls

let clear () =
  List.iter
    (fun b ->
      b.len <- 0;
      b.dropped <- 0;
      b.calls <- 0;
      Array.fill b.total_ns 0 nkinds 0;
      Array.fill b.count 0 nkinds 0)
    (buffers ())

let total_ns kind =
  List.fold_left (fun acc b -> acc + b.total_ns.(index kind)) 0 (buffers ())

let count kind =
  List.fold_left (fun acc b -> acc + b.count.(index kind)) 0 (buffers ())

let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

let fold kind f acc =
  let k = index kind in
  List.fold_left
    (fun acc b ->
      let acc = ref acc in
      for i = 0 to b.len - 1 do
        if b.kinds.(i) = k then acc := f !acc b i
      done;
      !acc)
    acc (buffers ())

(* Durations in ns of the kept spans of [kind]. *)
let durations kind =
  let s = Measure.samples () in
  fold kind (fun () b i -> Measure.add s (float_of_int (b.t1s.(i) - b.t0s.(i)))) ();
  Measure.values s

let write_chrome path =
  let bufs = buffers () in
  let base =
    List.fold_left
      (fun acc b ->
        let m = ref acc in
        for i = 0 to b.len - 1 do
          m := min !m b.t0s.(i)
        done;
        !m)
      max_int bufs
  in
  let oc = open_out path in
  output_string oc {|{"displayTimeUnit":"ns","traceEvents":[|};
  let first = ref true in
  let sep () = if !first then first := false else output_char oc ',' in
  List.iter
    (fun b ->
      sep ();
      Printf.fprintf oc
        {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"domain %d"}}|}
        b.tid b.tid;
      for i = 0 to b.len - 1 do
        sep ();
        Printf.fprintf oc
          {|{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}|}
          names.(b.kinds.(i)) b.tid
          (float_of_int (b.t0s.(i) - base) /. 1e3)
          (float_of_int (b.t1s.(i) - b.t0s.(i)) /. 1e3)
          b.ids.(i)
      done)
    bufs;
  Printf.fprintf oc {|],"dropped":%d}|} (dropped ());
  output_char oc '\n';
  close_out oc
