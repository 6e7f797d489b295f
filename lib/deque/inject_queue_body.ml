(* Protocol body for the bounded MPMC injection queue. Like
   chase_lev_body.ml, this file is compiled with a build-generated
   prelude binding [A] to the real or the instrumented atomic backend;
   keep it free of direct [Atomic] use.

   The algorithm is the per-slot sequence-number bounded queue (Vyukov):
   each cell carries a sequence counter that encodes whether the cell is
   free for the producer at cursor position [pos] (seq = pos) or holds a
   value for the consumer at position [pos] (seq = pos + 1). Producers
   and consumers claim cells by CAS on their own cursor, then publish by
   bumping the cell sequence — so a cursor CAS failure always means some
   other producer/consumer made progress, and both operations are
   lock-free with no unbounded waiting on a stalled peer. The Chase-Lev
   deque next door is single-producer; ingress needs many producers, so
   it gets its own protocol. *)

type 'a cell = {
  seq : int A.t;
  mutable value : 'a; (* protected by the seq protocol *)
}

type 'a t = {
  dummy : 'a;
  mask : int;
  cells : 'a cell array;
  enq : int A.t; (* next producer position *)
  deq : int A.t; (* next consumer position *)
}

let rec next_pow2 n k =
  if k >= n then k
  else if k > max_int / 2 then
    invalid_arg "Inject_queue.create: capacity too large"
  else next_pow2 n (k * 2)

let create ?(capacity = 64) ~dummy () =
  (* minimum 2: with a single slot, the producer one lap ahead sees the
     published seq (pos0 + 1 = pos1) as "free" and would overwrite an
     unconsumed value — the seq encoding needs the lap gap *)
  let cap = next_pow2 (max capacity 2) 1 in
  {
    dummy;
    mask = cap - 1;
    cells = Array.init cap (fun i -> { seq = A.make i; value = dummy });
    enq = A.make_padded 0;
    deq = A.make_padded 0;
  }

let rec try_push t v =
  let pos = A.get t.enq in
  let cell = t.cells.(pos land t.mask) in
  let seq = A.get cell.seq in
  let diff = seq - pos in
  if diff = 0 then
    if A.compare_and_set t.enq pos (pos + 1) then begin
      (* cell claimed: the value write is published by the seq bump *)
      cell.value <- v;
      A.set cell.seq (pos + 1);
      true
    end
    else try_push t v (* lost the cursor race; someone else advanced *)
  else if diff < 0 then false (* cell still holds an unconsumed value: full *)
  else try_push t v (* stale cursor read; re-read *)

let rec try_pop t =
  let pos = A.get t.deq in
  let cell = t.cells.(pos land t.mask) in
  let seq = A.get cell.seq in
  let diff = seq - (pos + 1) in
  if diff = 0 then
    if A.compare_and_set t.deq pos (pos + 1) then begin
      let v = cell.value in
      cell.value <- t.dummy;
      (* free the cell for the producer one lap ahead *)
      A.set cell.seq (pos + t.mask + 1);
      Some v
    end
    else try_pop t
  else if diff < 0 then None (* cell empty (or producer mid-publish) *)
  else try_pop t

let size t =
  let e = A.get t.enq and d = A.get t.deq in
  max 0 (e - d)
