(** Wool: efficient work stealing for fine grained parallelism.

    OCaml implementation of the direct task stack scheduler of Faxén
    (ICPP 2010): SPAWN / CALL / JOIN over a pool of domain workers. The
    pool's signature below is the whole runtime API, documented once in
    [pool.mli]; this module adds only the divide-and-conquer
    combinators at the end. *)

include module type of struct
  include Pool
end

(** {2 Divide-and-conquer combinators}

    Every combinator below spawns with {!spawn}, so each user-supplied
    body ([body i] / [f i] / [f xs.(i)]) runs exactly once, on whichever
    worker takes its leaf. Bodies that write shared state must make
    their writes safe under concurrency (one slot per index, or an
    atomic); the combinators add no synchronisation of their own. *)

val parallel_for : ctx -> ?grain:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for ctx ~grain lo hi body] runs [body i] for [lo <= i < hi]
    as a balanced binary task tree with at most [grain] iterations per
    leaf (default 1) — the spawn/call/join pattern of Figure 2 applied to
    index ranges. Raises [Invalid_argument] if [grain <= 0]. *)

val parallel_reduce :
  ctx -> ?grain:int -> int -> int -> neutral:'a -> (int -> 'a) ->
  ('a -> 'a -> 'a) -> 'a
(** Tree-shaped fold of [f lo ... f (hi-1)] under an associative [combine]
    with identity [neutral]. Raises [Invalid_argument] if [grain <= 0]. *)

val both : ctx -> (ctx -> 'a) -> (ctx -> 'b) -> 'a * 'b
(** Evaluate two computations as parallel tasks ([g] is the spawned
    one). *)

val parallel_map : ctx -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** Map over an array as a balanced task tree; results in order. Every
    element — including element 0, which seeds the output array — runs
    as a task inside the tree, so all of them see cancel checks, fault
    injection, trace accounting, and the scheduler unwind path
    uniformly. *)

val parallel_init : ctx -> ?grain:int -> int -> (int -> 'a) -> 'a array
(** [Array.init] with task-tree initialisers; the element-0 note of
    {!parallel_map} applies. Raises [Invalid_argument] on
    negative length. *)
