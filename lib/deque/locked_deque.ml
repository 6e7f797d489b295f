type 'a t = {
  cells : 'a array;
  dummy : 'a;
  lock : Mutex.t;
  top : int Atomic.t; (* owner-written; read by thieves under the lock *)
  bot : int Atomic.t; (* protected by [lock] *)
  c_lock : int Atomic.t;
  c_peek : int Atomic.t;
  c_abort : int Atomic.t;
}

type stats = { lock_acquires : int; peek_rejects : int; trylock_aborts : int }

let create ?(capacity = 65536) ~dummy () =
  if capacity <= 0 then invalid_arg "Locked_deque.create: capacity";
  {
    cells = Array.make capacity dummy;
    dummy;
    lock = Mutex.create ();
    top = Atomic.make 0;
    bot = Atomic.make 0;
    c_lock = Atomic.make 0;
    c_peek = Atomic.make 0;
    c_abort = Atomic.make 0;
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
  Atomic.incr t.c_lock;
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

let steal_locked t =
  let b = Atomic.get t.bot in
  if b >= Atomic.get t.top then None
  else begin
    let v = t.cells.(b) in
    t.cells.(b) <- t.dummy;
    Atomic.set t.bot (b + 1);
    Some v
  end

let has_work t = Atomic.get t.bot < Atomic.get t.top

let steal ~mode t =
  match mode with
  | `Base ->
      Mutex.lock t.lock;
      Atomic.incr t.c_lock;
      let r = steal_locked t in
      Mutex.unlock t.lock;
      r
  | `Peek ->
      if not (has_work t) then begin
        Atomic.incr t.c_peek;
        None
      end
      else begin
        Mutex.lock t.lock;
        Atomic.incr t.c_lock;
        let r = steal_locked t in
        Mutex.unlock t.lock;
        r
      end
  | `Trylock ->
      if not (has_work t) then begin
        Atomic.incr t.c_peek;
        None
      end
      else if Mutex.try_lock t.lock then begin
        Atomic.incr t.c_lock;
        let r = steal_locked t in
        Mutex.unlock t.lock;
        r
      end
      else begin
        Atomic.incr t.c_abort;
        None
      end

let size t = max 0 (Atomic.get t.top - Atomic.get t.bot)

let stats t =
  {
    lock_acquires = Atomic.get t.c_lock;
    peek_rejects = Atomic.get t.c_peek;
    trylock_aborts = Atomic.get t.c_abort;
  }
