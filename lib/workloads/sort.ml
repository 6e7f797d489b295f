module Tt = Wool_ir.Task_tree

(* Merge src.[lo,mid) and src.[mid,hi) into dst.[lo,hi). *)
let merge ~src ~dst lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || src.(!i) <= src.(!j)) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let base_cutoff = 16

(* Sort a.[lo,hi) leaving the result in [a]; [tmp] is scratch. *)
let rec msort a tmp lo hi =
  if hi - lo <= base_cutoff then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    msort a tmp lo mid;
    msort a tmp mid hi;
    Array.blit a lo tmp lo (hi - lo);
    merge ~src:tmp ~dst:a lo mid hi
  end

let serial input =
  let a = Array.copy input in
  let tmp = Array.make (Array.length a) 0 in
  msort a tmp 0 (Array.length a);
  a

(* The hand-rolled in-place spawn tree, kept as the A/B baseline for the
   rope path below. In-place merges make duplicate execution unsafe, so
   this version spawns with the exactly-once [Wool.spawn]. *)
let wool_handrolled ctx ?(cutoff = 64) input =
  let a = Array.copy input in
  let tmp = Array.make (Array.length a) 0 in
  let rec go ctx lo hi =
    if hi - lo <= cutoff then msort a tmp lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = Wool.spawn ctx (fun ctx -> go ctx mid hi) in
      go ctx lo mid;
      Wool.join ctx right;
      (* both halves sorted in place; merge through private scratch *)
      Array.blit a lo tmp lo (hi - lo);
      merge ~src:tmp ~dst:a lo mid hi
    end
  in
  Wool.call ctx (fun ctx -> go ctx 0 (Array.length a));
  a

(* Merge two sorted runs into a fresh array (pure — safe to duplicate). *)
let merge_runs x y =
  let nx = Array.length x and ny = Array.length y in
  let out = Array.make (nx + ny) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to nx + ny - 1 do
    if !i < nx && (!j >= ny || x.(!i) <= y.(!j)) then begin
      out.(k) <- x.(!i);
      incr i
    end
    else begin
      out.(k) <- y.(!j);
      incr j
    end
  done;
  out

(* The data-parallel path: sort fixed blocks in parallel (each block into
   a fresh array) via a rope [build], then merge the sorted runs pairwise
   in parallel rounds. Every task allocates its own output, unlike the
   in-place hand-rolled version. *)
let wool ctx ?(block = 2048) input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let nblocks = (n + block - 1) / block in
    let sort_block k =
      let lo = k * block in
      let len = min block (n - lo) in
      let a = Array.sub input lo len in
      let tmp = Array.make len 0 in
      msort a tmp 0 len;
      a
    in
    let runs =
      ref
        (Wool_ropes.to_array
           (Wool_ropes.build ctx ~split:(Wool_ropes.Lazy_split 1) nblocks
              sort_block))
    in
    while Array.length !runs > 1 do
      let rs = !runs in
      let m = Array.length rs in
      let pairs = m / 2 in
      runs :=
        Wool_ropes.to_array
          (Wool_ropes.build ctx ~split:(Wool_ropes.Lazy_split 1)
             (pairs + (m mod 2))
             (fun k ->
               if k < pairs then merge_runs rs.(2 * k) rs.((2 * k) + 1)
               else rs.(m - 1)))
    done;
    !runs.(0)
  end

let is_sorted a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if a.(i) > a.(i + 1) then ok := false
  done;
  !ok

(* work model: ~8 cycles per element in the base-case sort, ~6 per element
   merged at each internal node *)
let cycles_base = 8
let cycles_merge = 6

let tree ?(cutoff = 64) n =
  if n <= 0 then invalid_arg "Sort.tree: size must be positive";
  let memo = Hashtbl.create 32 in
  let rec build n =
    match Hashtbl.find_opt memo n with
    | Some t -> t
    | None ->
        let t =
          if n <= cutoff then
            (* n log n-ish base case, modelled linearly with a slope *)
            Tt.leaf (cycles_base * n)
          else begin
            let half = n / 2 in
            let rest = n - half in
            Tt.fork2 ~post:(cycles_merge * n) (build half) (build rest)
          end
        in
        Hashtbl.add memo n t;
        t
  in
  build n

let loop_leaves _ =
  invalid_arg
    "Sort.loop_leaves: mergesort is not a parallel loop; there is no \
     work-sharing schedule for it"
