(* Protocol body for the Chase-Lev deque. Like direct_stack_body.ml,
   this file is compiled with a build-generated prelude binding [A] to
   the real or the instrumented atomic backend; keep it free of direct
   [Atomic] use. *)

type 'a buffer = { mask : int; cells : 'a array }

type 'a t = {
  dummy : 'a;
  top : int A.t; (* next steal index; only increases *)
  bottom : int A.t; (* next push index; owner-written *)
  mutable buf : 'a buffer; (* owner-replaced on growth *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let make_buffer dummy capacity =
  let cap = next_pow2 (max capacity 2) 2 in
  { mask = cap - 1; cells = Array.make cap dummy }

let create ?(capacity = 64) ~dummy () =
  {
    dummy;
    top = A.make 0;
    bottom = A.make 0;
    buf = make_buffer dummy capacity;
  }

let buf_get buf i = buf.cells.(i land buf.mask)
let buf_set buf i v = buf.cells.(i land buf.mask) <- v

let grow t b top =
  let old = t.buf in
  let nbuf = make_buffer t.dummy ((old.mask + 1) * 2) in
  for i = top to b - 1 do
    buf_set nbuf i (buf_get old i)
  done;
  t.buf <- nbuf

let push t v =
  let b = A.get t.bottom in
  let top = A.get t.top in
  let buf = t.buf in
  if b - top > buf.mask then grow t b top;
  buf_set t.buf b v;
  (* Release store: thieves that observe the new bottom also observe the
     cell write. *)
  A.set t.bottom (b + 1)

let pop t =
  let b = A.get t.bottom - 1 in
  let buf = t.buf in
  A.set t.bottom b;
  let top = A.get t.top in
  if b < top then begin
    (* empty: restore *)
    A.set t.bottom top;
    None
  end
  else begin
    let v = buf_get buf b in
    if b > top then begin
      buf_set buf b t.dummy;
      Some v
    end
    else begin
      (* last element: race thieves on top *)
      let won = A.compare_and_set t.top top (top + 1) in
      A.set t.bottom (top + 1);
      if won then begin
        buf_set buf b t.dummy;
        Some v
      end
      else None
    end
  end

let steal t =
  let top = A.get t.top in
  let b = A.get t.bottom in
  if b <= top then `Empty
  else begin
    let v = buf_get t.buf top in
    if A.compare_and_set t.top top (top + 1) then `Stolen v else `Retry
  end

let size t =
  let b = A.get t.bottom and top = A.get t.top in
  max 0 (b - top)
