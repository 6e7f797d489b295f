module Tt = Wool_ir.Task_tree

let rec serial n = if n < 2 then n else serial (n - 1) + serial (n - 2)

let rec wool ctx n =
  if n < 2 then n
  else begin
    let b = Wool.spawn ctx (fun ctx -> wool ctx (n - 2)) in
    let a = wool ctx (n - 1) in
    let b = Wool.join ctx b in
    a + b
  end

(* ~13 cycles of work per internal task (test, two calls, add), ~5 at the
   leaves: fib "spawns a task for every 13 cycles worth of work" (§I). *)
let leaf_work = 5
let node_pre = 6
let node_post = 7

let tree =
  let memo = Hashtbl.create 64 in
  let rec build n =
    match Hashtbl.find_opt memo n with
    | Some t -> t
    | None ->
        let t =
          if n < 2 then Tt.leaf leaf_work
          else
            Tt.fork2 ~pre:node_pre ~post:node_post (build (n - 1)) (build (n - 2))
        in
        Hashtbl.add memo n t;
        t
  in
  fun n ->
    if n < 0 then invalid_arg "Fib.tree: negative input";
    build n
