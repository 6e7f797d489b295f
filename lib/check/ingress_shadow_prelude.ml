(* The checker's backend of ingress_body.ml beyond [A] (see the rule in
   dune).

   [L.bump] updates a ledger counter without a scheduling point: the
   updates commute and no protocol step reads a counter — only a
   scenario's final assertions do — so interleaving them would multiply
   the schedules without adding a behaviour. The Adaptive EWMA is an
   [A] cell, but the scenarios build non-Adaptive ingresses, which never
   touch it; the dequeue decision's token and clock reads are scheduled.

   No scenario thread blocks on a ticket, so [W.wake] has nothing to do;
   a Block producer waiting for a slot parks until another thread
   writes, which keeps its wait finite under exploration. *)
module L = struct
  let bump = Shadow_atomic.unscheduled_add
end

module W = struct
  let wake () = ()
  let pause _ = Sched.relax ()
end
