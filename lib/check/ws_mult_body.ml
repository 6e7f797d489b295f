(* Protocol body for the fence-free work-stealing pool with multiplicity,
   after Castañeda & Piña (PAPERS.md): every operation — owner put/take
   and thief steal — is made of plain reads and writes on shared
   registers; there is no compare-and-set or fetch-and-add anywhere in
   the protocol. The price of dropping the read-modify-write operations
   is *multiplicity*: a racing owner and thief (or two racing thieves)
   may both extract the same task, and a thief acting on stale reads may
   even advance [head] past a recycled cell it never really observed, so
   a task can also be extracted by nobody. A runtime built on it must
   therefore (a) require task bodies to be idempotent, (b) skip
   extractions whose task already completed, and (c) let a join that
   cannot find its task execute the task body itself — which turns the
   protocol-level "lost task" into a duplicate at worst, never a hang.

   This protocol is studied, not shipped: the file is compiled only by
   the model checker, with a build-generated prelude binding [A] to the
   instrumented atomic backend; keep it free of direct [Atomic] use.
   Under OCaml's real atomics the reads and writes would still be
   sequentially consistent (the language offers no relaxed orderings),
   so on x86 the win could only be structural, never a literal fence
   elision; EXPERIMENTS.md records the measured runtime integration
   and why it was retired. *)

type 'a t = {
  dummy : 'a;
  head : int A.t; (* next steal index; thief-advanced by plain writes *)
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

(* Indices are absolute (never wrapped): a cell index is reused only when
   the owner takes a task back and puts a new one at the same depth,
   which is exactly the recycling race a runtime's completed-task check
   must absorb. Growth copies the *cell objects*, so a thief still reading an
   old buffer array observes writes through the same cells. *)
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
  (* Thieves advance [head] from stale reads of [tail], so after a
     boundary race [head] can sit past [tail]; resync forward or a task
     put below [head] would be invisible to everyone. *)
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
    (* h = b': a thief may extract the same task concurrently — the
       permitted multiplicity. *)
    if x == t.dummy then None else Some x
  end

let steal t =
  let h = A.get t.head in
  let b = A.get t.tail in
  if h >= b then None
  else begin
    let buf = t.buf in
    (* [buf] is a plain read racing owner growth: an older, shorter array
       may not reach a freshly observed index yet. *)
    if h >= Array.length buf then None
    else begin
      let x = A.get buf.(h) in
      (* Validate before advancing: if another thief moved [head] (or the
         owner drained past us) while we read the cell, give up without
         writing — re-reading narrows, but cannot close, the window in
         which two thieves extract the same task or a slow thief drags
         [head] backwards by one. Both outcomes only re-deliver tasks;
         neither loses one a self-executing join cannot recover. *)
      if A.get t.head = h && A.get t.tail > h then begin
        A.set t.head (h + 1);
        if x == t.dummy then None else Some x
      end
      else None
    end
  end

(* Racy snapshot; can transiently over- or under-count while a steal's
   plain [head] write is in flight. *)
let size t =
  let b = A.get t.tail and h = A.get t.head in
  max 0 (b - h)
