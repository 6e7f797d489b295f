(* Wool: the pool (see pool.mli for the execution model and the whole
   API) plus the divide-and-conquer loop combinators, documented in
   wool.mli. *)

include Pool

(* A non-positive grain used to hang these combinators: with [grain <= 0]
   a 1-element range never satisfies [hi - lo <= grain], and its split
   point [mid = lo] does not shrink it, so the recursion never bottomed
   out. Validated once at the entry wrapper; the inner recursion stays
   unchecked on the hot path. *)
let[@inline] check_grain fn grain =
  if grain <= 0 then
    invalid_arg (Printf.sprintf "Wool.%s: grain must be positive (got %d)" fn grain)

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

let both ctx f g =
  let fg = spawn ctx g in
  let a = f ctx in
  let b = join ctx fg in
  (a, b)

(* Element 0 seeds [Array.make], and it too is spawned and joined, so it
   gets the cancel check, fault site, trace count and unwind path of
   every other leaf: the combinators spawn exactly
   [1 + (internal splits of [1, n) at the given grain)] tasks. *)

let parallel_map ctx ?grain f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let first = spawn ctx (fun _ctx -> f xs.(0)) in
    let out = Array.make n (join ctx first) in
    parallel_for ctx ?grain 1 n (fun i -> out.(i) <- f xs.(i));
    out
  end

let parallel_init ctx ?grain n f =
  if n < 0 then invalid_arg "Wool.parallel_init: negative length";
  if n = 0 then [||]
  else begin
    let first = spawn ctx (fun _ctx -> f 0) in
    let out = Array.make n (join ctx first) in
    parallel_for ctx ?grain 1 n (fun i -> out.(i) <- f i);
    out
  end
