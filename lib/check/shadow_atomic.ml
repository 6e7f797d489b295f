(* The instrumented atomic backend: same signature as the production backend,
   but every operation is a scheduling point of {!Sched}. Cells are
   plain mutable records — the scheduler serialises all access, which is
   exactly the sequentially-consistent semantics OCaml gives real
   [Atomic.t] operations. *)

type 'a t = { mutable v : 'a }

let make v = { v }
let make_padded = make (* false sharing is not modelled *)
let get r = Sched.exec ~label:"get" ~write:false (fun () -> r.v)
let set r x = Sched.exec ~label:"set" ~write:true (fun () -> r.v <- x)

let exchange r x =
  Sched.exec ~label:"xchg" ~write:true (fun () ->
      let old = r.v in
      r.v <- x;
      old)

let compare_and_set r old now =
  Sched.exec ~label:"cas" ~write:true (fun () ->
      if r.v == old then begin
        r.v <- now;
        true
      end
      else false)

let fetch_and_add r n =
  Sched.exec ~label:"faa" ~write:true (fun () ->
      let old = r.v in
      r.v <- old + n;
      old)

let unscheduled_add r n = r.v <- r.v + n
let cpu_relax () = Sched.relax ()
let step label = Sched.exec ~label ~write:false ignore
let is_padded _ = true
let size_words _ = Wool_util.Layout.cache_line_words
