(* The checker's backend of ingress_body.ml beyond [A] (see the rule in
   dune).

   [L.bump] updates a ledger counter without a scheduling point, in the
   step of the thread's previous scheduled access: the updates commute,
   so interleaving them would multiply the schedules without adding a
   behaviour. Only a scenario's final assertions read the flows; the one
   counter a protocol step reads is [inflight], in [poll], [park] and
   [await]. An access of
   another thread that would fall between an update and the access it
   is folded into touches one cell, and the two touch different ones,
   so it commutes past one of them: the folding hides no interleaving.
   No thread waits for a counter to move, so an update need not wake
   one. The Adaptive EWMA is an [A] cell, but the scenarios build
   non-Adaptive ingresses, which never touch it; the dequeue decision's
   token and clock reads are scheduled.

   A Block producer waiting for a slot parks until another thread
   writes, which keeps its wait finite under exploration. For the same
   reason the idle poll's window reads no clock and ends after one
   poll, which still lets a job be admitted during it, and an
   awaiter's window ends after one nap, between two reads of its
   ticket; its spin re-reads the ticket once. A nap is no access of its
   own, so it adds no scheduling point.

   A gate is its epoch cell. A parked worker or blocked awaiter waits
   for that cell to move, not for any write: it re-reads the epoch
   after every write and parks again while it is unchanged, so a lost
   wake leaves it parked when every other thread has finished, and the
   checker reports the deadlock. Every unpark moves the epoch, so
   [unpark] frees every parked thread, as [unpark_all] does.

   [naps], [epochs] and [waits] count the naps taken, the epochs taken
   (each awaiter's or worker's registration) and the waits entered,
   for the scenarios' coverage checks; a scenario's setup zeroes
   them. *)
module L = struct
  let bump = Shadow_atomic.unscheduled_add
end

module W = struct
  let naps = ref 0
  let epochs = ref 0
  let waits = ref 0
  let pause _ = Sched.relax ()

  let poll_until _ = 0
  let polling _ = false
  let spins = 1

  let nap _ =
    incr naps;
    false

  type gate = int A.t

  let gate () = A.make 0
  let epoch g =
    incr epochs;
    A.get g

  let park g e =
    incr waits;
    while A.get g = e do
      Sched.relax ()
    done

  let unpark g = ignore (A.fetch_and_add g 1 : int)
  let unpark_all = unpark
end
