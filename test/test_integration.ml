(* Cross-module integration tests: the pipelines the bench harness and
   a downstream user would run, exercised end to end at small scale. *)

module S = Ivc_grid.Stencil

let test_catalog_to_profile_pipeline () =
  (* dataset -> catalog -> all algorithms -> performance profile *)
  let entries = Spatial_data.Catalog.entries_2d ~scale:0.02 ~subsample:40 () in
  Alcotest.(check bool) "some entries" true (List.length entries >= 5);
  let rows =
    entries
    |> List.map (fun (e : Spatial_data.Catalog.entry) ->
           Ivc.Algo.run_all e.Spatial_data.Catalog.inst
           |> List.map (fun (_, _, mc) -> max 1 mc)
           |> Array.of_list)
    |> Array.of_list
  in
  let profiles =
    Perfprof.Profile.compute
      ~algorithms:(Array.of_list Ivc.Algo.names)
      rows
  in
  Alcotest.(check int) "one profile per algorithm" 7 (List.length profiles);
  List.iter
    (fun p ->
      Alcotest.(check bool) "profile reaches 1 eventually" true
        (Perfprof.Profile.proportion_at p 1e9 = 1.0))
    profiles

let test_windowed_odd_cycle_bound_sound () =
  (* windowed bound <= exact optimum, and catches the Fig-3 instance's
     odd-cycle value *)
  let w = [| 0; 4; 0; 0; 3; 7; 7; 9; 7; 1; 0; 1; 5; 3; 8; 5 |] in
  let inst = S.make2 ~x:4 ~y:4 w in
  let windowed = Ivc.Bounds.windowed_odd_cycle_lb inst in
  let full = Ivc.Bounds.odd_cycle_lb ~max_len:11 inst in
  Alcotest.(check bool) "windowed <= full enumeration" true (windowed <= full);
  Alcotest.(check bool) "windowed at least the pair bound here" true
    (windowed >= Ivc.Bounds.pair_lb inst);
  match Ivc_exact.Cp.optimize inst with
  | Some (opt, _) -> Alcotest.(check bool) "sound" true (windowed <= opt)
  | None -> Alcotest.fail "budget"

let test_windowed_bound_on_3d_is_zero () =
  let inst = Util.random_inst3 ~seed:121 ~x:2 ~y:2 ~z:2 ~bound:5 in
  Alcotest.(check int) "3D returns 0" 0 (Ivc.Bounds.windowed_odd_cycle_lb inst)

let prop_windowed_bound_sound =
  Util.qtest ~count:30 "windowed odd-cycle bound below optimum" Util.gen_inst2
    (fun inst ->
      match Ivc_exact.Cp.optimize ~budget:1_000_000 inst with
      | None -> QCheck2.assume_fail ()
      | Some (opt, _) ->
          Ivc.Bounds.windowed_odd_cycle_lb inst <= opt
          && Ivc.Bounds.windowed_odd_cycle_lb ~window:4 inst <= opt)

let test_sim_policies_all_valid () =
  let inst = Util.random_inst2 ~seed:122 ~x:6 ~y:6 ~bound:9 in
  let starts = Ivc.Heuristics.glf inst in
  let dag =
    Taskpar.Dag.of_coloring inst ~starts ~cost:(fun v ->
        1.0 +. Float.of_int (S.weight inst v))
  in
  let cp = Taskpar.Dag.critical_path dag in
  List.iter
    (fun policy ->
      let sch = Taskpar.Sim.run ~policy dag ~workers:4 in
      Alcotest.(check bool) "makespan at least the critical path" true
        (sch.Taskpar.Sim.makespan >= cp -. 1e-9);
      Alcotest.(check bool) "makespan at most serial time" true
        (sch.Taskpar.Sim.makespan <= Taskpar.Dag.total_work dag +. 1e-9))
    [ Taskpar.Sim.Color_order; Taskpar.Sim.Lpt; Taskpar.Sim.Fifo ]

let test_gadget_io_roundtrip () =
  (* reduction gadget survives the instance text format *)
  let sat = Nae3sat.Instance.make 3 [ (1, 2, 3) ] in
  let gadget = Nae3sat.Reduction.build sat in
  let back = Spatial_data.Io.instance_of_string
      (Spatial_data.Io.instance_to_string gadget)
  in
  Alcotest.(check string) "describe" (S.describe gadget) (S.describe back);
  match Ivc_exact.Cp.decide back ~k:14 with
  | Ivc_exact.Cp.Colorable _ -> ()
  | _ -> Alcotest.fail "roundtripped gadget must stay 14-colorable"

let test_svg_of_dataset_coloring () =
  let cloud = Spatial_data.Datasets.pollen_us ~scale:0.02 () in
  let inst = Spatial_data.Gridding.grid2 cloud Spatial_data.Project.XY ~x:12 ~y:12 in
  let starts = Ivc.Iterated.best_effort ~max_rounds:2 inst in
  Util.check_valid inst starts;
  Alcotest.(check bool) "heatmap svg" true
    (Ivc.Svg.looks_like_svg (Ivc.Svg.heatmap inst));
  Alcotest.(check bool) "gantt svg" true
    (Ivc.Svg.looks_like_svg (Ivc.Svg.gantt inst starts))

let test_parallel_coloring_feeds_scheduler () =
  (* parallel coloring -> DAG -> pool execution, full loop *)
  let inst = Util.random_inst2 ~seed:123 ~x:8 ~y:8 ~bound:9 in
  let starts, _ = Ivc_kernel.Par_sweep.color ~workers:2 inst in
  let dag =
    Taskpar.Dag.of_coloring inst ~starts ~cost:(fun _ -> 1.0)
  in
  let hits = Array.make (S.n_vertices inst) 0 in
  let _ = Taskpar.Pool.run dag ~workers:2 ~work:(fun v -> hits.(v) <- hits.(v) + 1) in
  Alcotest.(check bool) "every task ran once" true
    (Array.for_all (( = ) 1) hits)

let suite =
  [
    Alcotest.test_case "catalog -> profile pipeline" `Quick test_catalog_to_profile_pipeline;
    Alcotest.test_case "windowed odd-cycle bound" `Quick test_windowed_odd_cycle_bound_sound;
    Alcotest.test_case "windowed bound on 3D" `Quick test_windowed_bound_on_3d_is_zero;
    prop_windowed_bound_sound;
    Alcotest.test_case "sim policies sane" `Quick test_sim_policies_all_valid;
    Alcotest.test_case "gadget io roundtrip" `Quick test_gadget_io_roundtrip;
    Alcotest.test_case "svg of dataset coloring" `Quick test_svg_of_dataset_coloring;
    Alcotest.test_case "parallel coloring feeds scheduler" `Quick
      test_parallel_coloring_feeds_scheduler;
  ]
