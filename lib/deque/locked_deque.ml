type t = {
  lock : Mutex.t;
  mutable bot : int; (* protected by [lock] *)
  top : int Atomic.t; (* owner-written; read by thieves under the lock *)
}

let create () = { lock = Mutex.create (); bot = 0; top = Atomic.make 0 }

(* Release store: a thief that observes the new top under the lock also
   observes the slot the owner filled before it. *)
let push t = Atomic.set t.top (Atomic.get t.top + 1)

let pop t =
  Mutex.lock t.lock;
  let i = Atomic.get t.top - 1 in
  let i = if i < t.bot then -1 else (Atomic.set t.top i; i) in
  Mutex.unlock t.lock;
  i

let steal t =
  Mutex.lock t.lock;
  let b = t.bot in
  let b = if b >= Atomic.get t.top then -1 else (t.bot <- b + 1; b) in
  Mutex.unlock t.lock;
  b

let rewind t i =
  Mutex.lock t.lock;
  t.bot <- i;
  Atomic.set t.top i;
  Mutex.unlock t.lock

let range t = (t.bot, Atomic.get t.top)
let size t = max 0 (Atomic.get t.top - t.bot)
