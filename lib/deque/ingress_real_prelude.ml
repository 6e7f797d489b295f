(* The production backend of ingress_body.ml beyond [A], textually
   included after atomic_real_prelude.ml (see the rule in dune).

   [L.bump] updates a ledger counter. [W] is the wait/wake backend, and
   [W.block] the pool's blocking await: awaiters of every ticket share
   one mutex/condition pair, which a settler locks only while some
   awaiter is registered in [sleepers]. That check cannot miss one: the
   settler publishes the state before reading [sleepers], and an awaiter
   registers before re-reading the state, so with sequentially
   consistent atomics at least one of the two sees the other. The
   awaiter's predicate is a closed function and its argument, so a
   blocking await allocates no closure.

   A [gate] is what one pool's parked workers wait on: its own
   mutex/condition pair and an epoch that every wake moves. A worker
   takes the epoch before its last re-check and waits until the epoch
   differs, so a wake that lands between the re-check and the wait is
   not lost. *)
module L = struct
  let[@inline] bump c n = ignore (Atomic.fetch_and_add c n : int)
end

module W = struct
  let lock = Mutex.create ()
  let cond = Condition.create ()
  let sleepers = Atomic.make 0

  let wake () =
    if Atomic.get sleepers > 0 then begin
      Mutex.lock lock;
      Condition.broadcast cond;
      Mutex.unlock lock
    end

  let block pending x =
    Atomic.incr sleepers;
    Mutex.lock lock;
    while pending x do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    Atomic.decr sleepers

  type gate = { g_lock : Mutex.t; g_cond : Condition.t; epoch : int Atomic.t }

  let gate () =
    { g_lock = Mutex.create (); g_cond = Condition.create ();
      epoch = Atomic.make 0 }

  let epoch g = Atomic.get g.epoch

  let park g e =
    Mutex.lock g.g_lock;
    while Atomic.get g.epoch = e do
      Condition.wait g.g_cond g.g_lock
    done;
    Mutex.unlock g.g_lock

  let unpark g =
    Mutex.lock g.g_lock;
    Atomic.incr g.epoch;
    Condition.signal g.g_cond;
    Mutex.unlock g.g_lock

  let unpark_all g =
    Mutex.lock g.g_lock;
    Atomic.incr g.epoch;
    Condition.broadcast g.g_cond;
    Mutex.unlock g.g_lock

  (* The idle poll's window: [poll_until w] is the clock [w] ns from
     now, and [polling d] relaxes once and says whether [d] is still
     ahead. *)
  let poll_until window = Wool_util.Clock.now_ns () + window

  let polling until =
    Domain.cpu_relax ();
    Wool_util.Clock.now_ns () < until

  (* Block admission's wait for a full lane: yield the timeslice every
     few spins so the draining workers run on an over-subscribed host. *)
  let pause tries =
    if tries land 63 = 63 then Unix.sleepf 0. else Domain.cpu_relax ()
end
