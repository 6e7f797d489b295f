(* The production backend of ingress_body.ml beyond [A], textually
   included after atomic_real_prelude.ml (see the rule in dune).

   [L.bump] updates a ledger counter. [W] is the wait/wake backend, and
   [W.block] the pool's blocking await: awaiters of every ticket share
   one mutex/condition pair, which a settler locks only while some
   awaiter is registered in [sleepers]. That check cannot miss one: the
   settler publishes the state before reading [sleepers], and an awaiter
   registers before re-reading the state, so with sequentially
   consistent atomics at least one of the two sees the other. *)
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

  let block pending =
    Atomic.incr sleepers;
    Mutex.lock lock;
    while pending () do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    Atomic.decr sleepers

  (* Block admission's wait for a full lane: yield the timeslice every
     few spins so the draining workers run on an over-subscribed host. *)
  let pause tries =
    if tries land 63 = 63 then Unix.sleepf 0. else Domain.cpu_relax ()
end
