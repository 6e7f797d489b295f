(* Wool: the pool (see pool.mli for the execution model and the whole
   API) plus the divide-and-conquer loop combinators used by the
   loop-shaped benchmarks (mm, ssf). *)

include Pool

(* A non-positive grain used to hang these combinators: with [grain <= 0]
   a 1-element range never satisfies [hi - lo <= grain], and its split
   point [mid = lo] does not shrink it, so the recursion never bottomed
   out. Validated once at the entry wrapper; the inner recursion stays
   unchecked on the hot path. *)
let[@inline] check_grain fn grain =
  if grain <= 0 then
    invalid_arg (Printf.sprintf "Wool.%s: grain must be positive (got %d)" fn grain)

(** [parallel_for ctx ~grain lo hi body] runs [body i] for [lo <= i < hi]
    as a balanced binary task tree with at most [grain] iterations per leaf
    (default 1). This is how Wool programs express parallel loops: the same
    spawn/call/join pattern as Figure 2 applied to index ranges. Raises
    [Invalid_argument] on [grain <= 0]. *)
let parallel_for ctx ?(grain = 1) lo hi body =
  check_grain "parallel_for" grain;
  let rec go ctx lo hi =
    if hi - lo <= grain then
      for i = lo to hi - 1 do
        body i
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = spawn ctx (fun ctx -> go ctx mid hi) in
      go ctx lo mid;
      join ctx right
    end
  in
  go ctx lo hi

(** [parallel_reduce ctx ~grain lo hi ~neutral f combine] folds
    [combine (f lo) (combine (f (lo+1)) ...)] over a balanced task tree.
    [combine] must be associative with [neutral] as identity. Raises
    [Invalid_argument] on [grain <= 0]. *)
let parallel_reduce ctx ?(grain = 1) lo hi ~neutral f combine =
  check_grain "parallel_reduce" grain;
  let rec go ctx lo hi =
    if hi - lo <= grain then begin
      let acc = ref neutral in
      for i = lo to hi - 1 do
        acc := combine !acc (f i)
      done;
      !acc
    end
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = spawn ctx (fun ctx -> go ctx mid hi) in
      let left = go ctx lo mid in
      combine left (join ctx right)
    end
  in
  go ctx lo hi

(** [both ctx f g] evaluates [f] and [g] as parallel tasks and returns both
    results — the binary fork-join primitive. *)
let both ctx f g =
  let fg = spawn ctx g in
  let a = f ctx in
  let b = join ctx fg in
  (a, b)

(* Element 0 is special only because [Array.make] needs a value before
   the loop can run. It used to be computed inline while seeding the
   output array, which let it escape the task tree entirely: no ambient
   cancel check, no fault injection, leaf trace counts off by one, and an
   exception from [f xs.(0)] bypassed the scheduler's unwind path.
   Spawning it as an ordinary task and joining immediately makes it
   uniform with every other leaf — the spawn performs the cancel check,
   the body runs under run-task accounting, and a raise unwinds like any
   task failure. The combinators therefore spawn exactly
   [1 + (internal splits of [1, n) at the given grain)] tasks. *)

(** [parallel_map ctx ~grain f xs] maps [f] over an array as a balanced
    task tree ([grain] elements per leaf, default 1). [f] may run on any
    worker; results land in a fresh array in order. *)
let parallel_map ctx ?grain f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let first = spawn ctx (fun _ctx -> f xs.(0)) in
    let out = Array.make n (join ctx first) in
    parallel_for ctx ?grain 1 n (fun i -> out.(i) <- f xs.(i));
    out
  end

(** [parallel_init ctx ~grain n f] is [Array.init n f] with the
    initialisers run as a task tree. Requires [n >= 0]. *)
let parallel_init ctx ?grain n f =
  if n < 0 then invalid_arg "Wool.parallel_init: negative length";
  if n = 0 then [||]
  else begin
    let first = spawn ctx (fun _ctx -> f 0) in
    let out = Array.make n (join ctx first) in
    parallel_for ctx ?grain 1 n (fun i -> out.(i) <- f i);
    out
  end
