(* The atomic operations the deque protocols are written against.

   The protocol sources (direct_stack_body.ml, chase_lev_body.ml) never
   name [Stdlib.Atomic] directly: they call through a module [A] bound
   by a prelude that the build system prepends (see lib/deque/dune and
   lib/check/dune). Production prepends atomic_real_prelude.ml — a local
   structure of [@inline] wrappers over [Atomic], which the non-flambda
   compiler reduces back to the intrinsics (a functor application, or
   even an alias to a signature-sealed module in another unit, would put
   an indirect call on the spawn/join fast path). The checking build
   binds [A] to [Wool_check.Shadow_atomic], which turns every operation
   into a scheduling point of the model checker. *)

module type S = sig
  type 'a t

  val make : 'a -> 'a t
  (** A plain shared cell. *)

  val make_padded : 'a -> 'a t
  (** A cell that owns its cache line in production
      ({!Wool_util.Layout.padded_atomic}); equal to {!make} under the
      instrumented backend, where false sharing is not modelled. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int

  val cpu_relax : unit -> unit
  (** Spin-wait hint. The instrumented backend parks the thread until
      another thread performs a write, turning unbounded protocol spins
      into finite schedules. *)

  val step : string -> unit
  (** A scheduling point that touches no cell, named for the schedule
      trace; nothing in production. The instrumented backend lets other
      threads run here, before the plain writes that follow it: the
      direct stack's grow stores its new slot array with a plain write,
      and this step lets the checker run a thief between the owner's
      last push into the old array and the grow. *)

  val is_padded : 'a t -> bool
  (** Layout introspection for the layout regression checks; always true
      under the instrumented backend. *)

  val size_words : 'a t -> int
end
