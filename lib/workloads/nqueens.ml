module Tt = Wool_ir.Task_tree

(* A partial placement is the list of columns already used, newest first;
   [ok] checks the new column against every placed row's column and both
   diagonals. *)
let ok col placed =
  let rec go d = function
    | [] -> true
    | c :: rest -> c <> col && c - d <> col && c + d <> col && go (d + 1) rest
  in
  go 1 placed

let serial n =
  let rec go row placed =
    if row = n then 1
    else begin
      let count = ref 0 in
      for col = 0 to n - 1 do
        if ok col placed then count := !count + go (row + 1) (col :: placed)
      done;
      !count
    end
  in
  go 0 []

(* Count the placement tests a serial subtree performs (the simulator work
   model). *)
let rec count_nodes n row placed =
  if row = n then 1
  else begin
    let total = ref 1 in
    for col = 0 to n - 1 do
      if ok col placed then total := !total + count_nodes n (row + 1) (col :: placed)
    done;
    !total
  end

let wool ctx ?(cutoff = 3) n =
  let rec serial_from row placed =
    if row = n then 1
    else begin
      let count = ref 0 in
      for col = 0 to n - 1 do
        if ok col placed then count := !count + serial_from (row + 1) (col :: placed)
      done;
      !count
    end
  in
  let rec go ctx row placed =
    if row >= cutoff then serial_from row placed
    else if row = n then 1
    else begin
      let children = ref [] in
      for col = n - 1 downto 0 do
        if ok col placed then
          children :=
            Wool.spawn ctx (fun ctx ->
                go ctx (row + 1) (col :: placed))
            :: !children
      done;
      (* join in LIFO spawn order: the newest spawn is the head *)
      List.fold_left (fun acc fut -> acc + Wool.join ctx fut) 0 !children
    end
  in
  go ctx 0 []

let cycles_per_node = 8

let tree ?(cutoff = 3) n =
  let rec go row placed =
    if row >= cutoff || row = n then
      Tt.leaf (cycles_per_node * count_nodes n row placed)
    else begin
      let children = ref [] in
      for col = n - 1 downto 0 do
        if ok col placed then children := go (row + 1) (col :: placed) :: !children
      done;
      match !children with
      | [] -> Tt.leaf cycles_per_node (* dead end: just the tests *)
      | cs -> Tt.spawn_all ~pre:(cycles_per_node * n) cs
    end
  in
  go 0 []

let known =
  [ (1, 1); (2, 0); (3, 0); (4, 2); (5, 10); (6, 4); (7, 40); (8, 92);
    (9, 352); (10, 724) ]
