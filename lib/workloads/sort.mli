(** Parallel mergesort (after the Cilk-5 distribution's [cilksort]).

    A further fine-grained workload beyond the paper's four: recursive
    splitting with the two halves as parallel tasks and a serial merge at
    every internal node. Unlike stress or fib, internal nodes carry work
    proportional to their subtree (the merge), which caps the abstract
    parallelism at about [n / log n] and puts real work on the critical
    path — a different shape for the scheduler. *)

val serial : int array -> int array
(** Stable mergesort; the input is not modified. *)

val wool : Wool.ctx -> ?block:int -> int array -> int array
(** Data-parallel version: [block]-element runs (default 2048) sorted in
    parallel via a rope build, then merged pairwise in parallel rounds.
    Every task writes a fresh array. *)

val wool_handrolled : Wool.ctx -> ?cutoff:int -> int array -> int array
(** The in-place spawn tree (recursions above [cutoff] elements, default
    64, spawn; serial in-place merges). Exactly-once pools only; kept
    for A/B comparison against {!wool}. *)

val is_sorted : int array -> bool

val tree : ?cutoff:int -> int -> Wool_ir.Task_tree.t
(** Simulator task tree for sorting [n] elements: leaves model the serial
    base-case sort, internal nodes the merge (~6 cycles per element
    merged). *)

val loop_leaves : int -> int array
(** Not a loop workload; raises [Invalid_argument]. Present to document
    why sort has no OpenMP work-sharing form. *)
