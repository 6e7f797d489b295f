module Tt = Wool_ir.Task_tree

(* Word counting over generated text — the canonical fine-grained
   data-parallel reduction, added as a rope workload (ROADMAP item 1).

   A chunk cannot count its words locally without knowing whether its
   first character continues a word from the previous chunk. Counting
   word {e starts} dissolves the boundary: position [i] starts a word
   iff it holds a word character and [i = 0] or position [i - 1] does
   not. Every position is then independent and the per-position folds
   are pure. *)

let is_word_char c = c <> ' ' && c <> '\n' && c <> '\t'

(* Deterministic pseudo-text: ~1 space in 8, so words average ~7
   characters — enough density that the count is input-size shaped, not
   degenerate. *)
let subject ?(seed = 17) n =
  let rng = Wool_util.Rng.make seed in
  String.init n (fun _ ->
      if Wool_util.Rng.int rng 8 = 0 then ' '
      else Char.chr (Char.code 'a' + Wool_util.Rng.int rng 26))

let word_start s i =
  is_word_char s.[i] && (i = 0 || not (is_word_char s.[i - 1]))

let serial s =
  let count = ref 0 in
  for i = 0 to String.length s - 1 do
    if word_start s i then incr count
  done;
  !count

(* Positions are cheap, so the lazy splitter checks for hunger every 512
   of them; override [split] to A/B schedules (the ropes sweep does). *)
let wool ctx ?(split = Wool_ropes.Lazy_split 512) s =
  Wool_ropes.reduce ctx ~split ~neutral:0 ~combine:( + )
    (fun i -> if word_start s i then 1 else 0)
    (Wool_ropes.of_array (Array.init (String.length s) Fun.id))

(* Simulator model: a parallel loop over chunk leaves, ~4 cycles per
   character scanned. *)
let cycles_per_char = 4
let model_chunk = 512

let leaf_sizes n =
  let nleaves = (n + model_chunk - 1) / model_chunk in
  Array.init nleaves (fun k ->
      let lo = k * model_chunk in
      cycles_per_char * (min model_chunk (n - lo)))

let split_overhead = 4

let tree n =
  if n <= 0 then invalid_arg "Wordcount.tree: size must be positive";
  Tt.binary_split ~grain_merge:split_overhead
    (Array.map Tt.leaf (leaf_sizes n))

let loop_leaves n = leaf_sizes n
