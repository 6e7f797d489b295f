(* The production atomic backend, textually included into each generated
   protocol unit (see the rules in dune — this file is a rule input, not
   a module of the library).

   [A] must be a local structure, not an alias to a module in another
   compilation unit: this switch has no flambda, and the classic
   compiler does not inline through a signature-sealed module projection
   — binding [A = Atomic_ops.Real] left every protocol atomic behind an
   indirect call through the module block. A same-unit [let[@inline]]
   wrapper reliably reduces to the Atomic intrinsic. *)
module A = struct
  [@@@warning "-32"] (* each protocol body uses a subset of the backend *)

  type 'a t = 'a Atomic.t

  let[@inline] make v = Atomic.make v
  let[@inline] make_padded v = Wool_util.Layout.padded_atomic v
  let[@inline] get t = Atomic.get t
  let[@inline] set t v = Atomic.set t v
  let[@inline] exchange t v = Atomic.exchange t v
  let[@inline] compare_and_set t old now = Atomic.compare_and_set t old now
  let[@inline] fetch_and_add t n = Atomic.fetch_and_add t n
  let[@inline] cpu_relax () = Domain.cpu_relax ()
  let[@inline] step (_ : string) = ()
  let is_padded t = Wool_util.Layout.is_padded t
  let size_words t = Wool_util.Layout.size_words t
end

(* Conformance check only; call sites go through [A] directly. *)
module _ : Atomic_ops.S with type 'a t = 'a Atomic.t = A

(* The direct task stack's initial slot-array length: a push that reaches
   the array's length doubles it, up to the stack's capacity. The model
   checker's copy of the body binds 2 instead (lib/check/dune), so a
   scenario grows the array on its third push. The other protocol
   bodies do not use it. *)
let initial_slots = 64 [@@warning "-32"]
