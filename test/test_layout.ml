(* Cache-conscious layout regression tests: the padding machinery itself,
   and the padded pieces of the direct stack and the pool. *)

module Layout = Wool_util.Layout
module Ds = Wool_deque.Direct_stack

let test_machinery () =
  Alcotest.(check (list string)) "Layout.check" [] (Layout.check ())

let test_padded_blocks_are_full_lines () =
  (* the invariant the design rests on: a padded block is a whole number
     of cache lines (>= 1), so two distinct padded blocks can never have
     their first fields on the same line *)
  let a = Layout.padded_atomic 1 in
  let b = Layout.padded_atomic 2 in
  Alcotest.(check bool) "a padded" true (Layout.is_padded a);
  Alcotest.(check bool) "b padded" true (Layout.is_padded b);
  Alcotest.(check bool) "full line" true
    (Layout.size_words a >= Layout.cache_line_words);
  Alcotest.(check int) "values independent" 3 (Atomic.get a + Atomic.get b)

let test_direct_stack_layout () =
  List.iter
    (fun publicity ->
      let t = Ds.create ~capacity:64 ~publicity ~dummy:(-1) () in
      Alcotest.(check (list string)) "direct stack padded" []
        (Ds.layout_check t))
    [ Ds.All_private; Ds.All_public; Ds.Adaptive 4 ]

let test_pool_layout_all_modes () =
  List.iter
    (fun (name, mode) ->
      Test_util.with_pool ~workers:2 ~mode (fun pool ->
          Alcotest.(check (list string)) (name ^ " layout") []
            (Wool.layout_check pool)))
    [
      ("private", Wool.Private);
      ("swap_generic", Wool.Swap_generic);
      ("locked", Wool.Locked);
      ("clev", Wool.Clev);
    ]

let test_layout_survives_work () =
  (* padding is a property of the blocks, not of a fresh pool: still true
     after the GC has moved things around under real scheduling *)
  Test_util.with_pool ~workers:2 (fun pool ->
      let rec fib ctx n =
        if n < 2 then n
        else begin
          let b = Wool.spawn ctx (fun ctx -> fib ctx (n - 2)) in
          let a = fib ctx (n - 1) in
          a + Wool.join ctx b
        end
      in
      ignore (Wool.run pool (fun ctx -> fib ctx 18) : int);
      Gc.compact ();
      Alcotest.(check (list string)) "layout after work + compaction" []
        (Wool.layout_check pool))

let suite =
  [
    ( "layout",
      [
        Alcotest.test_case "padding machinery" `Quick test_machinery;
        Alcotest.test_case "padded blocks are full lines" `Quick
          test_padded_blocks_are_full_lines;
        Alcotest.test_case "direct stack layout" `Quick
          test_direct_stack_layout;
        Alcotest.test_case "pool layout all modes" `Quick
          test_pool_layout_all_modes;
        Alcotest.test_case "layout survives work" `Quick
          test_layout_survives_work;
      ] );
  ]
