(* Parallel collections over balanced rope trees, in the style of
   Manticore's par-rope-lib, on top of the Wool runtime.

   The interesting part is not the rope — it is {e when to split}. The
   classic eager schedule cuts every range down to a fixed grain and
   spawns the full binary tree whether or not anyone wants the halves;
   on a Wool pool most of those spawns are 1-cycle private pushes, but
   they are still pushes, and the tree bookkeeping is pure overhead when
   no thief ever shows up. Lazy binary splitting inverts the decision:
   a leaf iterates chunk by chunk and asks the runtime between chunks —
   via {!Wool.steal_pressure}, the trip-wire / thief-activity signal the
   direct task stack maintains anyway — whether thieves are hungry. Only
   then does it halve the remainder and spawn one side. The chunks grow
   1, 2, 4, … up to the split's cap (Tzannes et al.'s lazy binary
   splitting), so the first poll comes after one element and a thief
   that is already waiting need not sit out a whole cap-sized chunk.
   One worker, or a saturated pool, runs the whole range as a plain
   loop.

   Every parallel body below writes disjoint slots of a fresh array (or
   folds pure values), so no two tasks write the same location. [pred]
   is called twice per element by [filter] (count pass, emit pass). *)

type 'a t =
  | Leaf of 'a array
  | Cat of { len : int; depth : int; l : 'a t; r : 'a t }

type split = Lazy_split of int | Eager of int

let default_chunk = 64
let default_split = Lazy_split default_chunk
let max_leaf = 512
let empty : 'a t = Leaf [||]

let length = function Leaf a -> Array.length a | Cat c -> c.len
let depth = function Leaf _ -> 0 | Cat c -> c.depth

let get t i =
  if i < 0 || i >= length t then
    invalid_arg "Wool_ropes.get: index out of bounds";
  let rec go t i =
    match t with
    | Leaf a -> Array.unsafe_get a i
    | Cat { l; r; _ } ->
        let ll = length l in
        if i < ll then go l i else go r (i - ll)
  in
  go t i

let of_array ?(leaf = max_leaf) a =
  if leaf <= 0 then invalid_arg "Wool_ropes.of_array: leaf must be positive";
  let n = Array.length a in
  let rec build lo hi =
    if hi - lo <= leaf then Leaf (Array.sub a lo (hi - lo))
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let l = build lo mid and r = build mid hi in
      Cat { len = hi - lo; depth = 1 + max (depth l) (depth r); l; r }
    end
  in
  if n = 0 then empty else build 0 n

let to_array t =
  let n = length t in
  if n = 0 then [||]
  else begin
    let out = Array.make n (get t 0) in
    let rec fill t pos =
      match t with
      | Leaf a -> Array.blit a 0 out pos (Array.length a)
      | Cat { l; r; _ } ->
          fill l pos;
          fill r (pos + length l)
    in
    fill t 0;
    out
  end

let of_list l = of_array (Array.of_list l)
let to_list t = Array.to_list (to_array t)

(* floor(log2 n) for n >= 1 *)
let ilog2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* A rope built by [of_array] over [max_leaf]-sized leaves has depth
   about [log2 n - 9]; anything within [log2 n + 2] is close enough that
   [get]/structural recursion stay logarithmic. Beyond that — e.g. a
   long chain of appends — rebuild from the flat array. *)
let balanced t = depth t <= ilog2 (max 1 (length t)) + 2

let append l r =
  let c =
    if length l = 0 then r
    else if length r = 0 then l
    else if length l + length r <= max_leaf then
      (* both sides small: merge into one leaf instead of growing a
         chain of tiny Cat nodes *)
      Leaf (Array.append (to_array l) (to_array r))
    else
      Cat
        {
          len = length l + length r;
          depth = 1 + max (depth l) (depth r);
          l;
          r;
        }
  in
  if balanced c then c else of_array (to_array c)

(* ---- the split engine ---- *)

let[@inline] check_cancel ctx =
  match Wool.cancel_token ctx with
  | None -> ()
  | Some c -> Wool.Cancel.check c

let check_split = function
  | Lazy_split c when c <= 0 ->
      invalid_arg "Wool_ropes: Lazy_split chunk must be positive"
  | Eager g when g <= 0 ->
      invalid_arg "Wool_ropes: Eager grain must be positive"
  | Lazy_split _ | Eager _ -> ()

(* Eager fixed-grain splitting: the conventional schedule, kept both as
   the A/B baseline for `woolbench ropes` and for callers that know
   thieves will always be hungry. [body lo hi] folds the chunk. *)
let rec eager_reduce ctx ~grain ~combine body lo hi =
  if hi - lo <= grain then begin
    check_cancel ctx;
    body lo hi
  end
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let right =
      Wool.spawn ctx (fun ctx ->
          eager_reduce ctx ~grain ~combine body mid hi)
    in
    let l = eager_reduce ctx ~grain ~combine body lo mid in
    combine l (Wool.join ctx right)
  end

(* Lazy binary splitting: run one chunk, poll for hunger, and only under
   pressure halve the remainder — spawning the far half, recursing (still
   lazily) into the near half. With no pressure this is a plain loop:
   zero spawns, constant stack. The chunk ramps 1, 2, 4, … up to [cap]
   (the header says why), costing an unwatched loop log2 [cap] extra
   chunk boundaries; both halves of a split restart the ramp, and the
   split test compares the remainder with the next chunk. [acc0]
   threads the fold across chunks; the spawned half starts from
   [neutral], and associativity of [combine] glues the halves back
   together. *)
let rec lazy_reduce ctx ~cap ~neutral ~combine body acc0 lo hi =
  let acc = ref acc0 in
  let pos = ref lo in
  let chunk = ref 1 in
  let finished = ref false in
  while (not !finished) && !pos < hi do
    check_cancel ctx;
    let stop = min hi (!pos + !chunk) in
    acc := combine !acc (body !pos stop);
    pos := stop;
    chunk := min cap (2 * !chunk);
    if hi - !pos > !chunk && Wool.steal_pressure ctx then begin
      let mid = !pos + ((hi - !pos) / 2) in
      let right =
        Wool.spawn ctx (fun ctx ->
            lazy_reduce ctx ~cap ~neutral ~combine body neutral mid hi)
      in
      let l = lazy_reduce ctx ~cap ~neutral ~combine body !acc !pos mid in
      acc := combine l (Wool.join ctx right);
      finished := true
    end
  done;
  !acc

let run_reduce ctx ~split ~neutral ~combine body lo hi =
  check_split split;
  if hi <= lo then neutral
  else
    match split with
    | Eager grain -> eager_reduce ctx ~grain ~combine body lo hi
    | Lazy_split cap -> lazy_reduce ctx ~cap ~neutral ~combine body neutral lo hi

let unit_combine () () = ()

let run_unit ctx ~split body lo hi =
  run_reduce ctx ~split ~neutral:() ~combine:unit_combine body lo hi

(* Apply [f i v] to every element with global index in [lo, hi) — a
   tree-pruned walk, so each chunk costs O(depth + elements touched). *)
let rec iter_sub t tstart lo hi f =
  match t with
  | Leaf a ->
      let s = max lo tstart and e = min hi (tstart + Array.length a) in
      for i = s to e - 1 do
        f i (Array.unsafe_get a (i - tstart))
      done
  | Cat { l; r; len; _ } ->
      if hi <= tstart || tstart + len <= lo then ()
      else begin
        iter_sub l tstart lo hi f;
        iter_sub r (tstart + length l) lo hi f
      end

(* ---- the parallel operations ---- *)

(* Element 0 of every fresh output array is spawned as a task of its own
   and joined to seed [Array.make] — the same discipline as
   [Wool.parallel_map] — so even the seeding element sees cancel checks,
   fault injection, and the scheduler unwind path. *)

let build ctx ?(split = default_split) ?leaf n f =
  if n < 0 then invalid_arg "Wool_ropes.build: negative length";
  check_split split;
  if n = 0 then empty
  else begin
    let first = Wool.spawn ctx (fun _ctx -> f 0) in
    let out = Array.make n (Wool.join ctx first) in
    run_unit ctx ~split
      (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- f i
        done)
      1 n;
    of_array ?leaf out
  end

let map ctx ?(split = default_split) f t =
  let n = length t in
  check_split split;
  if n = 0 then empty
  else begin
    let first = Wool.spawn ctx (fun _ctx -> f (get t 0)) in
    let out = Array.make n (Wool.join ctx first) in
    run_unit ctx ~split
      (fun lo hi -> iter_sub t 0 lo hi (fun i x -> out.(i) <- f x))
      1 n;
    of_array out
  end

let for_each ctx ?(split = default_split) f t =
  run_unit ctx ~split (fun lo hi -> iter_sub t 0 lo hi f) 0 (length t)

let reduce ctx ?(split = default_split) ~neutral ~combine f t =
  run_reduce ctx ~split ~neutral ~combine
    (fun lo hi ->
      let acc = ref neutral in
      iter_sub t 0 lo hi (fun _ x -> acc := combine !acc (f x));
      !acc)
    0 (length t)

(* Block decomposition shared by [scan] and [filter]: the element space
   is cut into fixed blocks of the split's cap/grain size, and the
   engine then runs over {e block} indices with granularity 1 — so one
   engine chunk is one block, preserving the configured granularity. *)
let block_layout split n =
  let block =
    match split with Lazy_split c -> c | Eager g -> g
  in
  let block = max 1 block in
  let scaled =
    match split with Lazy_split _ -> Lazy_split 1 | Eager _ -> Eager 1
  in
  (block, (n + block - 1) / block, scaled)

let scan ctx ?(split = default_split) ~neutral ~combine t =
  let n = length t in
  check_split split;
  if n = 0 then empty
  else begin
    let block, nblocks, bsplit = block_layout split n in
    (* pass 1: per-block totals (disjoint slots, parallel) *)
    let sums = Array.make nblocks neutral in
    run_unit ctx ~split:bsplit
      (fun blo bhi ->
        for k = blo to bhi - 1 do
          let lo = k * block and hi = min n ((k + 1) * block) in
          let acc = ref neutral in
          iter_sub t 0 lo hi (fun _ x -> acc := combine !acc x);
          sums.(k) <- !acc
        done)
      0 nblocks;
    (* sequential exclusive prefix over the block totals *)
    let pre = Array.make nblocks neutral in
    let acc = ref neutral in
    for k = 0 to nblocks - 1 do
      pre.(k) <- !acc;
      acc := combine !acc sums.(k)
    done;
    (* pass 2: emit the inclusive scan, each block seeded by its prefix *)
    let out = Array.make n neutral in
    run_unit ctx ~split:bsplit
      (fun blo bhi ->
        for k = blo to bhi - 1 do
          let lo = k * block and hi = min n ((k + 1) * block) in
          let acc = ref pre.(k) in
          iter_sub t 0 lo hi (fun i x ->
              acc := combine !acc x;
              out.(i) <- !acc)
        done)
      0 nblocks;
    of_array out
  end

let filter ctx ?(split = default_split) pred t =
  let n = length t in
  check_split split;
  if n = 0 then empty
  else begin
    let block, nblocks, bsplit = block_layout split n in
    (* pass 1: kept-count per block (disjoint slots, parallel) *)
    let counts = Array.make nblocks 0 in
    run_unit ctx ~split:bsplit
      (fun blo bhi ->
        for k = blo to bhi - 1 do
          let lo = k * block and hi = min n ((k + 1) * block) in
          let c = ref 0 in
          iter_sub t 0 lo hi (fun _ x -> if pred x then incr c);
          counts.(k) <- !c
        done)
      0 nblocks;
    let offsets = Array.make nblocks 0 in
    let total = ref 0 in
    for k = 0 to nblocks - 1 do
      offsets.(k) <- !total;
      total := !total + counts.(k)
    done;
    let total = !total in
    if total = 0 then empty
    else begin
      (* seed the output with the first kept element (found in the first
         non-empty block; [Array.make] needs a value of the right type) *)
      let seed =
        let k0 = ref 0 in
        while counts.(!k0) = 0 do
          incr k0
        done;
        let found = ref None in
        iter_sub t 0 (!k0 * block)
          (min n ((!k0 + 1) * block))
          (fun _ x ->
            match !found with
            | None -> if pred x then found := Some x
            | Some _ -> ());
        match !found with Some x -> x | None -> assert false
      in
      let out = Array.make total seed in
      (* pass 2: compact each block into its precomputed slice — still
         disjoint slots *)
      run_unit ctx ~split:bsplit
        (fun blo bhi ->
          for k = blo to bhi - 1 do
            let lo = k * block and hi = min n ((k + 1) * block) in
            let pos = ref offsets.(k) in
            iter_sub t 0 lo hi (fun _ x ->
                if pred x then begin
                  out.(!pos) <- x;
                  incr pos
                end)
          done)
        0 nblocks;
      of_array out
    end
  end
