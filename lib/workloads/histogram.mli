(** Byte histogram over generated data — a rope reduction whose
    accumulator is a whole bucket array (ROADMAP item 1).

    Each block folds into a fresh bucket array and the combine builds a
    fresh elementwise sum, so nothing shared is ever mutated. *)

val buckets : int
(** Number of histogram buckets (256). *)

val subject : ?seed:int -> int -> int array
(** Deterministic data: [n] values in [0, buckets). *)

val serial : int array -> int array
(** Sequential histogram (the oracle digest). *)

val wool : Wool.ctx -> ?split:Wool_ropes.split -> int array -> int array
(** Rope reduction in 1024-element blocks; default split polls steal
    pressure once per block ([Lazy_split 1] over block indices). *)

val equal : int array -> int array -> bool

val tree : int -> Wool_ir.Task_tree.t
(** Simulator tree: balanced split over block leaves at ~2 cycles per
    element, with a combine charge at the merges. *)

val loop_leaves : int -> int array
(** Per-block work for the OpenMP work-sharing schedule. *)
