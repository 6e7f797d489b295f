module Tt = Wool_ir.Task_tree

type matrix = float array array

let random_matrix rng n =
  Array.init n (fun _ -> Array.init n (fun _ -> Wool_util.Rng.float rng 1.0))

let mult_row ~a ~b ~c i =
  let n = Array.length a in
  let ai = a.(i) and ci = c.(i) in
  for j = 0 to n - 1 do
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (ai.(k) *. b.(k).(j))
    done;
    ci.(j) <- !s
  done

let serial a b =
  let n = Array.length a in
  let c = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    mult_row ~a ~b ~c i
  done;
  c

(* The hand-rolled spawn tree (eager, grain 1), kept as the A/B baseline
   for the rope path below. *)
let wool_handrolled ctx a b =
  let n = Array.length a in
  let c = Array.make_matrix n n 0.0 in
  Wool.parallel_for ctx ~grain:1 0 n (fun i -> mult_row ~a ~b ~c i);
  c

(* The data-parallel path: one rope [for_each] over the row indices.
   Rows are coarse (~n² multiply-adds each), so the lazy splitter polls
   for steal pressure after every row (chunk 1). Each row task writes
   only its own row of [c]. *)
let wool ctx a b =
  let n = Array.length a in
  let c = Array.make_matrix n n 0.0 in
  Wool_ropes.for_each ctx
    ~split:(Wool_ropes.Lazy_split 1)
    (fun _ i -> mult_row ~a ~b ~c i)
    (Wool_ropes.of_array (Array.init n Fun.id));
  c

let equal ?(eps = 1e-9) x y =
  let n = Array.length x in
  n = Array.length y
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if Float.abs (x.(i).(j) -. y.(i).(j)) > eps then ok := false
         done
       done;
       !ok
     end

(* 976k cycles per mm(64) repetition (Table I) over 64 rows of 64x64
   multiply-adds: ~3.7 cycles each. *)
let cycles_per_madd = 3.7

let row_work n = int_of_float (cycles_per_madd *. float_of_int (n * n))

let split_overhead = 4

let tree n =
  if n <= 0 then invalid_arg "Mm.tree: size must be positive";
  let row = Tt.leaf (row_work n) in
  Tt.binary_split ~grain_merge:split_overhead (Array.make n row)

let loop_leaves n = Array.make n (row_work n)
