type 'a t = {
  cells : 'a array;
  dummy : 'a;
  lock : Mutex.t;
  top : int Atomic.t; (* owner-written; read by thieves under the lock *)
  bot : int Atomic.t; (* protected by [lock] *)
}

let create ?(capacity = 65536) ~dummy () =
  if capacity <= 0 then invalid_arg "Locked_deque.create: capacity";
  {
    cells = Array.make capacity dummy;
    dummy;
    lock = Mutex.create ();
    top = Atomic.make 0;
    bot = Atomic.make 0;
  }

let push t v =
  let i = Atomic.get t.top in
  if i >= Array.length t.cells then raise Task_state.Pool_overflow;
  t.cells.(i) <- v;
  (* Release store: a thief that observes the new top under the lock also
     observes the cell write. *)
  Atomic.set t.top (i + 1)

let pop t =
  Mutex.lock t.lock;
  let i = Atomic.get t.top - 1 in
  let b = Atomic.get t.bot in
  let r =
    if i < b then begin
      (* Empty: thieves took every task, so [top = bot]. Rewind both to
         0 (thieves read them only under the lock), or each steal would
         cost the deque one cell of capacity for good. *)
      Atomic.set t.bot 0;
      Atomic.set t.top 0;
      None
    end
    else begin
      Atomic.set t.top i;
      let v = t.cells.(i) in
      t.cells.(i) <- t.dummy;
      Some v
    end
  in
  Mutex.unlock t.lock;
  r

let steal t =
  Mutex.lock t.lock;
  let b = Atomic.get t.bot in
  let r =
    if b >= Atomic.get t.top then None
    else begin
      let v = t.cells.(b) in
      t.cells.(b) <- t.dummy;
      Atomic.set t.bot (b + 1);
      Some v
    end
  in
  Mutex.unlock t.lock;
  r

let size t = max 0 (Atomic.get t.top - Atomic.get t.bot)
