(** Word counting over generated text — a fine-grained data-parallel
    reduction expressed with {!Wool_ropes} (ROADMAP item 1).

    Words are counted as word {e starts} (a word character whose
    predecessor is not one), which makes every position independent. *)

val subject : ?seed:int -> int -> string
(** Deterministic pseudo-text of length [n] (~1 space in 8). *)

val serial : string -> int
(** Sequential word count (the oracle digest). *)

val wool : Wool.ctx -> ?split:Wool_ropes.split -> string -> int
(** Rope reduction over the positions; default split is
    [Lazy_split 512]. *)

val tree : int -> Wool_ir.Task_tree.t
(** Simulator tree: balanced split over 512-character chunk leaves at
    ~4 cycles per character. *)

val loop_leaves : int -> int array
(** Per-chunk work for the OpenMP work-sharing schedule. *)
