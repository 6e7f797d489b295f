(* The checker's backend of ingress_body.ml beyond [A] (see the rule in
   dune).

   [L.bump] updates a ledger counter without a scheduling point, in the
   step of the thread's previous scheduled access: the updates commute,
   so interleaving them would multiply the schedules without adding a
   behaviour. Only a scenario's final assertions read the flows; the one
   counter a protocol step reads is [inflight], in [park]. An access of
   another thread that would fall between an update and the access it
   is folded into touches one cell, and the two touch different ones,
   so it commutes past one of them: the folding hides no interleaving.
   No thread waits for a counter to move, so an update need not wake
   one. The Adaptive EWMA is an [A] cell, but the scenarios build
   non-Adaptive ingresses, which never touch it; the dequeue decision's
   token and clock reads are scheduled.

   No scenario thread blocks on a ticket, so [W.wake] has nothing to do;
   a Block producer waiting for a slot parks until another thread
   writes, which keeps its wait finite under exploration. For the same
   reason the idle poll's window reads no clock and ends after one
   poll, which still lets a job be admitted during it.

   A gate is its epoch cell. A parked worker waits for that cell to
   move, not for any write: it re-reads the epoch after every write and
   parks again while it is unchanged, so a lost wake leaves it parked
   when every other thread has finished, and the checker reports the
   deadlock. Every unpark moves the epoch, so [unpark] frees every
   parked worker, as [unpark_all] does; the scenarios park one. *)
module L = struct
  let bump = Shadow_atomic.unscheduled_add
end

module W = struct
  let wake () = ()
  let pause _ = Sched.relax ()

  let poll_until _ = 0
  let polling _ = false

  type gate = int A.t

  let gate () = A.make 0
  let epoch = A.get

  let park g e =
    while A.get g = e do
      Sched.relax ()
    done

  let unpark g = ignore (A.fetch_and_add g 1 : int)
  let unpark_all = unpark
end
