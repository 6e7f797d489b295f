(* Trace-consistency oracle for real-pool histories.

   Given the per-worker event rings of a quiescent pool and its counter
   totals, validate that the event stream tells a coherent story. Two
   kinds of checks:

   - Accounting: each counter equals the number of events carrying its
     tag (only sound when the rings dropped nothing).

   - Causality, direct modes only (queued modes carry [a = -1]):
     descriptor indices recycle, so ordering single events is not
     possible — and timestamps cannot be used anyway, because events are
     recorded *after* their protocol action (a thief can record its
     [Steal_ok] before the victim records the [Spawn] that published the
     descriptor). What does hold is multiplicity: every steal of
     descriptor [i] from victim [v] consumed a distinct incarnation, and
     each incarnation was spawned exactly once — so steals of [(v, i)]
     can never outnumber [v]'s spawns at [i]. Likewise a [Join_stolen]
     naming thief [th] means the owner observed STOLEN([th]) before the
     thief's DONE, which requires a matching committed steal: joins of
     [(owner, i)] blaming [th] can never outnumber [th]'s [Steal_ok]s of
     [(owner, i)]. *)

module E = Wool_trace.Event

let count_tag per_worker tag =
  Array.fold_left
    (fun acc evs ->
      Array.fold_left
        (fun acc (e : E.t) -> if e.tag = tag then acc + 1 else acc)
        acc evs)
    0 per_worker

let check_events ~direct ~counts ~dropped per_worker =
  if dropped > 0 then [] (* incomplete stream: nothing sound to check *)
  else begin
    let errs = ref [] in
    let add fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
    List.iter
      (fun (tag, expected) ->
        let n = count_tag per_worker tag in
        if n <> expected then
          add "%d %s event(s) but counter says %d" n (E.tag_name tag) expected)
      counts;
    (* every committed steal was preceded by a probe on the same thief *)
    Array.iteri
      (fun w evs ->
        let att = ref 0 and ok = ref 0 in
        Array.iter
          (fun (e : E.t) ->
            match e.tag with
            | E.Steal_attempt -> incr att
            | E.Steal_ok -> incr ok
            | _ -> ())
          evs;
        if !ok > !att then
          add "worker %d: %d steal_ok but only %d steal_attempt" w !ok !att)
      per_worker;
    if direct then begin
      (* multiplicity causality over recycled descriptor indices *)
      let tally tbl key =
        Hashtbl.replace tbl key
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      in
      let spawns = Hashtbl.create 64 (* (owner, index) -> n *) in
      let steal_ok = Hashtbl.create 64 (* (thief, index, victim) -> n *) in
      let steals_of = Hashtbl.create 64 (* (victim, index) -> n *) in
      let joins = Hashtbl.create 64 (* (owner, index, thief) -> n *) in
      Array.iteri
        (fun w evs ->
          Array.iter
            (fun (e : E.t) ->
              match e.tag with
              | E.Spawn when e.a >= 0 -> tally spawns (w, e.a)
              | E.Steal_ok when e.a >= 0 && e.b >= 0 ->
                  tally steal_ok (w, e.a, e.b);
                  tally steals_of (e.b, e.a)
              | E.Join_stolen when e.a >= 0 && e.b >= 0 ->
                  tally joins (w, e.a, e.b)
              | _ -> ())
            evs)
        per_worker;
      Hashtbl.iter
        (fun (victim, index) n ->
          let sp = Option.value ~default:0 (Hashtbl.find_opt spawns (victim, index)) in
          if n > sp then
            add
              "causality: %d steal(s) of descriptor %d from worker %d but \
               only %d spawn(s) there"
              n index victim sp)
        steals_of;
      Hashtbl.iter
        (fun (owner, index, thief) n ->
          let st =
            Option.value ~default:0 (Hashtbl.find_opt steal_ok (thief, index, owner))
          in
          if n > st then
            add
              "causality: worker %d joined descriptor %d as stolen-by-%d %d \
               time(s) but that thief committed only %d matching steal(s)"
              owner index thief n st)
        joins
    end;
    List.rev !errs
  end
