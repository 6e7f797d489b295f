(** Atomic backend for the deque protocol bodies.

    direct_stack_body.ml and chase_lev_body.ml perform every atomic
    operation through a module [A : S] bound by a build-time prelude.
    Production prepends atomic_real_prelude.ml — same-unit [@inline]
    wrappers over [Stdlib.Atomic] that compile back to the intrinsics;
    the model checker in [Wool_check] substitutes its instrumented
    [Shadow_atomic] to make each operation a scheduling point. *)

module type S = sig
  type 'a t

  val make : 'a -> 'a t
  val make_padded : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int

  val cpu_relax : unit -> unit
  (** Spin-wait hint; the instrumented backend parks the caller until
      another thread writes, keeping protocol spin loops finite under
      exhaustive exploration. *)

  val step : string -> unit
  (** A named scheduling point that touches no cell: nothing in
      production; the instrumented backend interleaves other threads
      there, before the plain writes that follow it (the direct stack's
      grow). *)

  val is_padded : 'a t -> bool
  val size_words : 'a t -> int
end
