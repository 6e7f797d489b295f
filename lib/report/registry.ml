type experiment = { key : string; title : string; run : unit -> unit }

let all =
  [
    { key = "fig1"; title = "Figure 1: fib and stress headline speedups";
      run = Fig1.run };
    { key = "table1"; title = "Table I: workload characteristics";
      run = Table1.run };
    { key = "table2"; title = "Table II: optimizing inlined tasks (real runtime)";
      run = Table2.run };
    { key = "table3"; title = "Table III: inlined and stolen task costs";
      run = Table3.run };
    { key = "fig4"; title = "Figure 4: stealing implementations";
      run = Fig4.run };
    { key = "fig5"; title = "Figure 5: application speedups on four systems";
      run = Fig5.run };
    { key = "table4"; title = "Table IV: steal cost model vs measurement";
      run = Table4.run };
    { key = "fig6"; title = "Figure 6: CPU time breakdown"; run = Fig6.run };
    { key = "space";
      title = "Sec. I space behaviour: spawn-loop task-pool depth";
      run = Space.run };
    { key = "ablation"; title = "Ablations: blocked joins, public window, victims";
      run = Ablation.run };
    { key = "gantt"; title = "Gantt traces of representative schedules";
      run = Gantt.run };
    { key = "hooks";
      title = "Disabled-path overhead of the fault hooks and the watchdog";
      run = Hooks.run };
  ]

let find key = List.find_opt (fun e -> e.key = key) all
let keys () = List.map (fun e -> e.key) all

let run_all () =
  List.iter
    (fun e ->
      print_newline ();
      e.run ())
    all
