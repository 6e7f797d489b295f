module Tt = Wool_ir.Task_tree

(* Byte histogram over generated data — the second rope workload
   (ROADMAP item 1): a reduction whose accumulator is a whole array, not
   a scalar, exercising the combine tree with non-trivial neutral
   elements.

   Each block folds into a {e fresh} bucket array and [combine] builds a
   fresh elementwise sum, so nothing shared is ever mutated (a
   shared-counter phrasing would need atomic buckets). *)

let buckets = 256

let subject ?(seed = 23) n =
  let rng = Wool_util.Rng.make seed in
  Array.init n (fun _ -> Wool_util.Rng.int rng buckets)

let serial data =
  let h = Array.make buckets 0 in
  Array.iter (fun v -> h.(v) <- h.(v) + 1) data;
  h

(* Elements are rope-reduced in blocks: each block is one rope element,
   so the per-element [f] amortises its bucket-array allocation over
   [block] inputs, and the lazy splitter polls once per block. *)
let block = 1024

let wool ctx ?(split = Wool_ropes.Lazy_split 1) data =
  let n = Array.length data in
  if n = 0 then Array.make buckets 0
  else begin
    let nblocks = (n + block - 1) / block in
    Wool_ropes.reduce ctx ~split
      ~neutral:(Array.make buckets 0)
      ~combine:(fun a b -> Array.init buckets (fun i -> a.(i) + b.(i)))
      (fun k ->
        let h = Array.make buckets 0 in
        let hi = min n ((k + 1) * block) in
        for i = k * block to hi - 1 do
          let v = data.(i) in
          h.(v) <- h.(v) + 1
        done;
        h)
      (Wool_ropes.of_array (Array.init nblocks Fun.id))
  end

let equal a b = a = (b : int array)

(* Simulator model: a parallel loop over block leaves, ~2 cycles per
   element bucketed, plus a combine charge at the merges. *)
let cycles_per_elem = 2
let combine_overhead = 16

let leaf_sizes n =
  let nleaves = (n + block - 1) / block in
  Array.init nleaves (fun k ->
      let lo = k * block in
      cycles_per_elem * (min block (n - lo)))

let tree n =
  if n <= 0 then invalid_arg "Histogram.tree: size must be positive";
  Tt.binary_split ~grain_merge:combine_overhead
    (Array.map Tt.leaf (leaf_sizes n))

let loop_leaves n = leaf_sizes n
