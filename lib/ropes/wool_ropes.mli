(** Parallel collections over balanced rope trees (Manticore's
    par-rope-lib shape) on the Wool runtime.

    A rope is an immutable balanced tree of array leaves: O(log n)
    [append] and [get], O(n) conversion to and from flat arrays, and
    data-parallel bulk operations. The novelty is the split schedule:
    by default every operation uses {e lazy binary splitting} — a leaf
    runs one chunk of iterations, polls {!Wool.steal_pressure} (the
    trip-wire / thief-activity signal the direct task stack maintains
    anyway), and only when thieves are hungry halves the remaining range
    and spawns one side. The chunk starts at one iteration and doubles
    after each poll up to the split's cap, so a waiting thief is served
    after the first iteration. With no pressure (one worker, or a
    saturated pool) the whole range runs as a plain sequential loop with
    zero spawns. [Eager] reproduces the conventional fixed-grain recursive
    schedule, kept as the A/B baseline (`woolbench ropes`).

    {b Purity.} Every parallel body writes disjoint slots of fresh
    arrays or folds pure values, and each spawned body runs exactly
    once. The user-supplied functions ([f], [pred], [combine]) run on
    whichever worker takes their leaf, so they must not write shared
    state without their own synchronisation; [filter]'s [pred] is
    called twice per element (count pass and emit pass).

    {b Cancellation.} Leaf execution checks the ambient cancel token
    ({!Wool.cancel_token}) between chunks, so a cancelled submission's
    rope operation stops at the next chunk boundary with
    {!Wool.Cancel.Cancelled}.

    Leaves hold at most 512 elements — sized so a leaf is also a
    sensible unit to hand a whole worker team at once (the planned
    mixed-mode team-building layer consumes rope splits). *)

type 'a t
(** An immutable rope of ['a]. *)

(** How a parallel operation cuts its index range into tasks. *)
type split =
  | Lazy_split of int
      (** [Lazy_split cap]: run a chunk of iterations, poll
          {!Wool.steal_pressure}, split the remainder in half only under
          pressure. The chunk starts at 1 and doubles after each chunk
          up to [cap]; both halves of a split restart at 1.
          [Lazy_split 1] polls after every iteration. The default, with
          cap 64. *)
  | Eager of int
      (** [Eager grain]: conventional schedule — recursively halve down
          to [grain] iterations per leaf and spawn every split,
          regardless of demand. *)

val default_split : split
(** [Lazy_split 64]: chunks of 1, 2, 4, …, 64, then 64 each. *)

val empty : 'a t

val length : 'a t -> int
val depth : 'a t -> int
(** Tree depth (leaves are 0); exposed so tests can pin the balance
    guarantees of {!append}. *)

val get : 'a t -> int -> 'a
(** O(depth). Raises [Invalid_argument] out of bounds. *)

val of_array : ?leaf:int -> 'a array -> 'a t
(** Balanced rope over a copy of the array, chopped into leaves of at
    most [leaf] (default 512) elements. Raises [Invalid_argument] if
    [leaf <= 0]. *)

val to_array : 'a t -> 'a array
(** Flatten (fresh array; the rope is unaffected). *)

val of_list : 'a list -> 'a t
val to_list : 'a t -> 'a list

val append : 'a t -> 'a t -> 'a t
(** Concatenate. Small sides merge into one leaf; a result whose depth
    drifts beyond O(log length) — e.g. a long chain of appends of
    skewed trees — is rebuilt balanced, so [get] stays logarithmic. *)

val build : Wool.ctx -> ?split:split -> ?leaf:int -> int -> (int -> 'a) -> 'a t
(** [build ctx n f] is the rope of [f 0 ... f (n-1)] with the
    initialisers run in parallel ([f] must be pure — see the purity
    note above). Raises [Invalid_argument] on negative [n]. *)

val map : Wool.ctx -> ?split:split -> ('a -> 'b) -> 'a t -> 'b t
(** Parallel map; order preserved. *)

val for_each : Wool.ctx -> ?split:split -> (int -> 'a -> unit) -> 'a t -> unit
(** [for_each ctx f t] runs [f i x] for every element [x] at index [i],
    in parallel, once each. Calls run concurrently, so [f] should
    write only state of its own (write-one-slot style). *)

val reduce :
  Wool.ctx -> ?split:split -> neutral:'b -> combine:('b -> 'b -> 'b) ->
  ('a -> 'b) -> 'a t -> 'b
(** [reduce ctx ~neutral ~combine f t] folds [combine] over [f x] for
    every element. [combine] must be associative with [neutral] as
    identity (the split schedule decides the combine tree). *)

val scan :
  Wool.ctx -> ?split:split -> neutral:'a -> combine:('a -> 'a -> 'a) ->
  'a t -> 'a t
(** Inclusive parallel prefix: element [i] of the result is
    [x_0 ⊕ ... ⊕ x_i]. Two block passes (parallel totals, sequential
    block prefix, parallel emit); [combine] must be associative with
    [neutral] as identity. *)

val filter : Wool.ctx -> ?split:split -> ('a -> bool) -> 'a t -> 'a t
(** Keep the elements satisfying [pred], order preserved. Two block
    passes; [pred] runs twice per element and must be pure. *)
