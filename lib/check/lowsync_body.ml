(* Protocol body for the low-synchronization work-stealing pool, in the
   spirit of Rito & Paulino (PAPERS.md): synchronization is spent only
   where contention actually is. The owner's put/take are plain reads
   and writes — in particular [take] never issues the last-element CAS
   that Chase–Lev pays — while thieves claim cells with exactly one
   compare-and-set on [head] per successful steal. The CAS serializes
   thieves against each other (no thief–thief duplicates, and [head] is
   monotone), so the only relaxed behaviour left is the owner/thief race
   on the boundary cell: when [head] reaches [tail - 1], the owner's
   take and one thief's steal may both extract that task. A stale thief
   can also claim a cell the owner already drained and recycled. As with
   ws_mult, a runtime built on it must require idempotent bodies, skip
   completed tasks, and self-execute at join, so duplicates are absorbed
   and nothing is lost.

   Studied, not shipped: compiled only by the model checker, with a
   build-generated prelude binding [A] to the instrumented backend; keep
   this file free of direct [Atomic] use. *)

type 'a t = {
  dummy : 'a;
  head : int A.t; (* next steal index; thief-CASed, monotone *)
  tail : int A.t; (* next put index; owner-written *)
  mutable buf : 'a A.t array; (* owner-replaced on growth; cells shared *)
}

let create ?(capacity = 64) ~dummy () =
  {
    dummy;
    head = A.make_padded 0;
    tail = A.make_padded 0;
    buf = Array.init (max capacity 2) (fun _ -> A.make dummy);
  }

let grow t want =
  let old = t.buf in
  let n = Array.length old in
  let m = ref (n * 2) in
  while !m <= want do
    m := !m * 2
  done;
  let nbuf = Array.init !m (fun i -> if i < n then old.(i) else A.make t.dummy) in
  t.buf <- nbuf

let put t x =
  let b0 = A.get t.tail in
  let h = A.get t.head in
  (* After a boundary race the claimed [head] can sit one past [tail];
     resync forward so the new task lands above it. *)
  let b = if h > b0 then h else b0 in
  if b >= Array.length t.buf then grow t b;
  A.set t.buf.(b) x;
  A.set t.tail (b + 1)

let take t =
  let b = A.get t.tail in
  let h = A.get t.head in
  if h >= b then None
  else begin
    let b' = b - 1 in
    let x = A.get t.buf.(b') in
    A.set t.tail b';
    (* h = b': one thief may have CASed the same cell — the boundary
       duplicate this mode deliberately accepts instead of an owner-side
       CAS. *)
    if x == t.dummy then None else Some x
  end

let steal t =
  let h = A.get t.head in
  let b = A.get t.tail in
  if h >= b then None
  else begin
    let buf = t.buf in
    (* racing owner growth: an older array may not reach the index *)
    if h >= Array.length buf then None
    else begin
      let x = A.get buf.(h) in
      if x != t.dummy && A.compare_and_set t.head h (h + 1) then Some x
      else None
    end
  end

(* Racy snapshot. [head] is monotone here, so at quiescence this settles
   at the true count, unlike ws_mult. *)
let size t =
  let b = A.get t.tail and h = A.get t.head in
  max 0 (b - h)
