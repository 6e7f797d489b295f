(* The production backend of ingress_body.ml beyond [A], textually
   included after atomic_real_prelude.ml (see the rule in dune).

   [L.bump] updates a ledger counter. [W] is the wait/wake backend.
   There is no process-wide await state: each ingress registers its
   blocked awaiters in its own cells and rings its own gate.

   A [gate] is what one pool's parked workers, or its blocked
   awaiters, wait on: its own mutex/condition pair and an epoch that
   every wake moves. A waiter takes the epoch before its last re-check
   and waits until the epoch differs, so a wake that lands between the
   re-check and the wait is not lost. *)
module L = struct
  let[@inline] bump c n = ignore (Atomic.fetch_and_add c n : int)
end

module W = struct
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

  (* An awaiter's re-reads before it naps or blocks: a few relaxes,
     about 0.1 µs. Beside a CPU hog, 32 (about 0.8 µs) left the
     producer and a 1-worker pool's worker taking turns on one core, the
     producer woken only once the worker's idle poll ran out
     (EXPERIMENTS.md). *)
  let spins = 4

  (* An awaiter's nap on a busy pool, which yields the core to the
     workers; whether [until] is still ahead. 50 µs, one idle-nap unit
     of the pool (about 0.1 ms with the timer slack): beside a CPU hog
     the producer shares the worker's core, and each nap's wake costs
     it. The OS's shortest sleep (1 µs asked, about 57 µs slept) woke
     about once per 45 µs request and read serve's batch slower there
     than blocking does (EXPERIMENTS.md). *)
  let nap until =
    Unix.sleepf 50e-6;
    Wool_util.Clock.now_ns () < until

  (* Block admission's wait for a full lane: yield the timeslice every
     few spins so the draining workers run on an over-subscribed host. *)
  let pause tries =
    if tries land 63 = 63 then Unix.sleepf 0. else Domain.cpu_relax ()
end
