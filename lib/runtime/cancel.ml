(* Cooperative cancellation tokens.

   A token is one shared flag. Nothing in the runtime preempts a running
   task: cancellation is *cooperative* — the ingress body's dequeue-time
   decision ([Wool_deque.Ingress.must_run]) drops a cancelled job (the
   body never starts), and a running body observes the flag itself via
   [is_set]/[check] (or implicitly at every spawn through the worker's
   ambient token, see {!Pool.spawn}).

   The token carries no settlement state of its own: the ticket's one
   CAS claim ([Wool_deque.Ingress.settle]) decides cancel-vs-complete
   races exactly once, even when the [Dup] drain fault delivers a job
   twice. *)

type t = bool Atomic.t

exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Wool.Cancel.Cancelled"
    | _ -> None)

let create () = Atomic.make false
let cancel t = Atomic.set t true
let is_set t = Atomic.get t
let check t = if Atomic.get t then raise Cancelled
