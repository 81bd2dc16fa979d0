(* Aggregated alcotest runner for the whole repository. *)

let () =
  Alcotest.run "ivc-stencil"
    [
      ("interval", Test_interval.suite);
      ("graph", Test_graph.suite);
      ("grid", Test_grid.suite);
      ("coloring", Test_coloring.suite);
      ("greedy", Test_greedy.suite);
      ("kernel", Test_kernel.suite);
      ("special-cases", Test_special.suite);
      ("bounds", Test_bounds.suite);
      ("heuristics", Test_heuristics.suite);
      ("bipartite-decomposition", Test_bd.suite);
      ("exact", Test_exact.suite);
      ("nae3sat", Test_sat.suite);
      ("datasets", Test_data.suite);
      ("profiles", Test_profile.suite);
      ("observability", Test_obs.suite);
      ("taskpar", Test_par.suite);
      ("stkde", Test_stkde.suite);
      ("order", Test_order.suite);
      ("compaction", Test_compaction.suite);
      ("iterated-greedy", Test_iterated.suite);
      ("classic-coloring", Test_classic.suite);
      ("hardness", Test_hardness.suite);
      ("resilience", Test_resilient.suite);
      ("out-of-core", Test_ooc.suite);
      ("check", Test_check.suite);
      ("incremental", Test_incremental.suite);
      ("persist", Test_persist.suite);
      ("server", Test_server.suite);
      ("generators", Test_generators.suite);
      ("io", Test_io.suite);
      ("svg", Test_svg.suite);
      ("integration", Test_integration.suite);
      ("edge-cases", Test_edge_cases.suite);
    ]
