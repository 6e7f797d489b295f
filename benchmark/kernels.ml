(* The benchmark's own copies of the kernels it times. Each fork-join
   kernel has an untraced form, which carries no probe, and a traced
   copy that records a spawn and a join span on every 1,024th spawn of
   the lowest level of its tree on a domain. At the lowest level the
   spawned child is a leaf, so a join span that inlines it holds little
   besides the join. *)

let sample_mask = 1023

(* Spawn [r], run [l], join [r], sum the two: the paper's SPAWN / CALL /
   JOIN, with span probes on sampled calls where [lowest] holds. *)
let traced_fork ctx ~lowest r l =
  let b = Spans.mine () in
  if lowest then b.Spans.calls <- b.Spans.calls + 1;
  if not (lowest && b.Spans.calls land sample_mask = 0) then begin
    let f = Wool.spawn ctx r in
    let a = l ctx in
    a + Wool.join ctx f
  end
  else begin
    let id = Spans.fresh_id b in
    let f = Spans.span Spawn id (fun () -> Wool.spawn ctx r) in
    let a = l ctx in
    a + Spans.span Join id (fun () -> Wool.join ctx f)
  end

(* ---- fib: one spawn per ~13 cycles of work (PAPER.md, section I) ---- *)

let rec fib_serial n = if n < 2 then n else fib_serial (n - 1) + fib_serial (n - 2)

(* How fast this recursion runs depends on where its machine code lands.
   Eight identical copies that differed only in address took 4.2-7.4 ms
   for fib(30) on the host, and which copies were fast changed whenever
   the code placed before them grew; an edit to the runtime can grow the
   program's start-up code, which is placed before this module. The
   fastest of the eight held within 4% across such shifts. So fib's
   serial reference and serve's job are these copies, spaced by fillers
   of different sizes that are never called; a run times each copy and
   uses the fastest one throughout (Workloads.fastest_copy). *)
let rec fib_a n = if n < 2 then n else fib_a (n - 1) + fib_a (n - 2)
let filler_a x = x lxor 3
let rec fib_b n = if n < 2 then n else fib_b (n - 1) + fib_b (n - 2)
let filler_b x = (x * 3) lxor (x * 5)
let rec fib_c n = if n < 2 then n else fib_c (n - 1) + fib_c (n - 2)
let filler_c x = (x * 3) lxor (x * 5) lxor (x * 7)
let rec fib_d n = if n < 2 then n else fib_d (n - 1) + fib_d (n - 2)
let filler_d x = (x * 3) lxor (x * 5) lxor (x * 7) lxor (x * 11)
let rec fib_e n = if n < 2 then n else fib_e (n - 1) + fib_e (n - 2)
let filler_e x = (x * 3) lxor (x * 5) lxor (x * 7) lxor (x * 11) lxor (x * 13)
let rec fib_f n = if n < 2 then n else fib_f (n - 1) + fib_f (n - 2)
let filler_f x = (x * 3) lxor (x * 5) lxor (x * 7) lxor (x * 11) lxor (x * 13) lxor (x * 17)
let rec fib_g n = if n < 2 then n else fib_g (n - 1) + fib_g (n - 2)
let filler_g x = (x * 3) lxor (x * 5) lxor (x * 7) lxor (x * 11) lxor (x * 13) lxor (x * 19 + 1)
let rec fib_h n = if n < 2 then n else fib_h (n - 1) + fib_h (n - 2)
let fib_placed = [| fib_a; fib_b; fib_c; fib_d; fib_e; fib_f; fib_g; fib_h |]

(* fib(27): 317,810 spawns, about 1 ms serially, so a run takes hundreds
   of solves and each solve sits next to its serial reference in time. *)
let fib_size ~tiny = if tiny then 20 else 27

let rec fib ctx n =
  if n < 2 then n
  else begin
    let b = Wool.spawn ctx (fun ctx -> fib ctx (n - 2)) in
    let a = fib ctx (n - 1) in
    a + Wool.join ctx b
  end

let rec fib_traced ctx n =
  if n < 2 then n
  else
    traced_fork ctx ~lowest:(n < 4)
      (fun ctx -> fib_traced ctx (n - 2))
      (fun ctx -> fib_traced ctx (n - 1))

(* fib(n) makes fib(n+1) - 1 spawns. *)
let fib_spawns n = fib_serial (n + 1) - 1

(* ---- regions: back-to-back parallel regions of a fixed spawn tree ----

   A region is a complete binary spawn tree of [height] levels whose
   leaves each run [leaf_iters] steps of an LCG; regions run one after
   another inside one [Wool.run], so between regions the second worker
   goes idle, probes, naps and must be woken by the next region's
   publish. *)

let leaf_iters = 400

let leaf seed =
  let x = ref seed in
  for _ = 1 to leaf_iters do
    x := ((!x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF
  done;
  !x lsr 32

let rec tree_serial depth idx =
  if depth = 0 then leaf idx
  else tree_serial (depth - 1) (2 * idx) + tree_serial (depth - 1) ((2 * idx) + 1)

let rec tree ctx depth idx =
  if depth = 0 then leaf idx
  else begin
    let f = Wool.spawn ctx (fun ctx -> tree ctx (depth - 1) ((2 * idx) + 1)) in
    let a = tree ctx (depth - 1) (2 * idx) in
    a + Wool.join ctx f
  end

let rec tree_traced ctx depth idx =
  if depth = 0 then leaf idx
  else
    traced_fork ctx ~lowest:(depth = 1)
      (fun ctx -> tree_traced ctx (depth - 1) ((2 * idx) + 1))
      (fun ctx -> tree_traced ctx (depth - 1) (2 * idx))

(* Region [r]'s root index keeps every leaf seed distinct. *)
let regions_with f ~regions ~height =
  let s = ref 0 in
  for r = 0 to regions - 1 do
    s := !s + f height ((r + 1) lsl height)
  done;
  !s

(* ---- histogram: a rope reduction over a seeded array ---- *)

let buckets = 256
let block = 1024

let histogram_input ~seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.bits st)

(* A key's bucket: four rounds of a xor-shift-multiply mix. The fold
   computes rather than streams, so its time does not follow the memory
   traffic of other tenants of the host. *)
let bucket x =
  let x = ref x in
  for _ = 1 to 4 do
    x := (!x lxor (!x lsr 29)) * 0x3f58476d1ce4e5b9
  done;
  (!x lsr 40) land (buckets - 1)

let fold_block data k =
  let h = Array.make buckets 0 in
  let hi = min (Array.length data) ((k + 1) * block) in
  for i = k * block to hi - 1 do
    let v = bucket (Array.unsafe_get data i) in
    h.(v) <- h.(v) + 1
  done;
  h

let combine a b = Array.init buckets (fun i -> a.(i) + b.(i))
let nblocks data = (Array.length data + block - 1) / block

(* The same block folds and combines as the rope reduction, in a loop:
   the work without the runtime. *)
let histogram_serial data =
  let h = ref (Array.make buckets 0) in
  for k = 0 to nblocks data - 1 do
    h := combine !h (fold_block data k)
  done;
  !h

(* One rope element per block: the per-element fold amortises its bucket
   array over [block] inputs and the lazy splitter polls once per
   chunk of blocks. *)
let blocks data = Wool_ropes.of_array (Array.init (nblocks data) Fun.id)

let histogram_with fold ctx rope =
  Wool_ropes.reduce ctx ~neutral:(Array.make buckets 0) ~combine fold rope

let histogram ctx data rope = histogram_with (fold_block data) ctx rope

let histogram_traced ctx data rope =
  histogram_with (fun k -> Spans.span Leaf k (fun () -> fold_block data k)) ctx rope

(* A digest that changes with any bucket. *)
let digest h = Array.fold_left (fun acc c -> (acc * 1_000_003) + c) 17 h
