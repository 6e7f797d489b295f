(* Entry point aggregating every suite; `dune runtest` runs it. *)

let () =
  Alcotest.run "wool"
    (Test_rng.suite @ Test_stats.suite @ Test_heap.suite @ Test_table.suite
   @ Test_plot.suite @ Test_clock.suite @ Test_layout.suite
   @ Test_task_state.suite
   @ Test_direct_stack.suite @ Test_chase_lev.suite @ Test_locked_deque.suite
   @ Test_pool.suite @ Test_alloc.suite @ Test_submit.suite @ Test_lifecycle.suite @ Test_fault.suite @ Test_policy.suite @ Test_topology.suite @ Test_cactus.suite @ Test_task_tree.suite @ Test_metrics.suite @ Test_model.suite
   @ Test_sim_deque.suite @ Test_engine.suite @ Test_loop_sim.suite
   @ Test_trace.suite @ Test_real_trace.suite
   @ Test_ropes.suite
   @ Test_workloads.suite @ Test_extra_workloads.suite @ Test_cholesky.suite
   @ Test_report.suite @ Test_bench.suite @ Test_check.suite)
