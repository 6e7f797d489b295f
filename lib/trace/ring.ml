(* Four ints per event (ts, tag, a, b) in one flat array: an event is 32
   bytes, so a 64-byte cache line holds two and a recording burst walks
   the array linearly. *)
let stride = 4

type t = {
  data : int array;
  mask : int;
  cap : int;
  mutable head : int; (* total events ever written; owner-only *)
}

let rec pow2 n k =
  if k >= n then k
  else if k > max_int / 2 then invalid_arg "Ring.create: capacity too large"
  else pow2 n (k * 2)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let cap = pow2 (max 2 capacity) 2 in
  { data = Array.make (cap * stride) 0; mask = cap - 1; cap; head = 0 }

let capacity t = t.cap

let[@inline] record t ~ts ~tag ~a ~b =
  let i = (t.head land t.mask) * stride in
  let d = t.data in
  Array.unsafe_set d i ts;
  Array.unsafe_set d (i + 1) (Event.tag_to_int tag);
  Array.unsafe_set d (i + 2) a;
  Array.unsafe_set d (i + 3) b;
  t.head <- t.head + 1

let written t = t.head
let dropped t = max 0 (t.head - t.cap)

let snapshot t ~worker =
  let head0 = t.head in
  let count = min head0 t.cap in
  let first = head0 - count in
  let out =
    Array.init count (fun k ->
        let seq = first + k in
        let i = (seq land t.mask) * stride in
        let tag =
          match Event.tag_of_int t.data.(i + 1) with
          | Some tag -> tag
          | None -> Event.Spawn (* torn write under a racy read; see below *)
        in
        {
          Event.ts = t.data.(i);
          worker;
          tag;
          a = t.data.(i + 2);
          b = t.data.(i + 3);
        })
  in
  (* If the owner advanced while we copied, the oldest [head1 - head0]
     entries we read may have been overwritten mid-copy; drop them. *)
  let head1 = t.head in
  let clobbered = min count (head1 - head0) in
  if clobbered = 0 then out
  else Array.sub out clobbered (count - clobbered)

let clear t = t.head <- 0
