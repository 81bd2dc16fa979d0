module S = Ivc_grid.Stencil
module Bo = Ivc.Bounds

let test_fixed_2x2 () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 2; 1; 4 |] in
  Alcotest.(check int) "weight lb" 4 (Bo.weight_lb inst);
  Alcotest.(check int) "pair lb" 7 (Bo.pair_lb inst);
  Alcotest.(check int) "clique lb is the K4 sum" 10 (Bo.clique_lb inst);
  Alcotest.(check int) "total ub" 10 (Bo.total_ub inst)

let test_clique_lb_3d () =
  let inst = S.init3 ~x:2 ~y:2 ~z:2 (fun _ _ _ -> 3) in
  Alcotest.(check int) "K8 sum" 24 (Bo.clique_lb inst)

let test_clique_lb_picks_heaviest_block () =
  let inst =
    S.make2 ~x:2 ~y:3 [| 1; 1; 9; 1; 1; 9 |]
    (* blocks: {1,1,1,1}=4 and {1,9,1,9}=20 *)
  in
  Alcotest.(check int) "heaviest block" 20 (Bo.clique_lb inst)

let test_odd_cycle_lb_beats_clique () =
  (* Figure 2 phenomenon: embed a weight pattern whose best odd cycle
     bound exceeds every K4. A 3x3 ring around a zero center carries an
     odd 8+1... the 8-ring is even; instead use a triangle-free-ish
     pattern: a C9 embedded as in Figure 2 needs a bigger grid, so here
     we check the bound on a 3x3 with a heavy odd 3-cycle (triangle =
     clique K3, whose minchain3 equals its sum, hence within K4 sums).
     The strict-improvement case is covered in test_exact with the
     Figure 3 reconstruction; this test checks consistency only. *)
  let inst = Util.random_inst2 ~seed:4 ~x:3 ~y:3 ~bound:9 in
  let oc = Bo.odd_cycle_lb ~max_len:7 inst in
  let cl = Bo.clique_lb inst in
  (* both are lower bounds for the exact optimum *)
  match Ivc_exact.Cp.optimize inst with
  | Ivc_exact.Cp.Bounds _ -> Alcotest.fail "exact budget"
  | Ivc_exact.Cp.Optimal (opt, _) ->
      Alcotest.(check bool) "odd cycle lb sound" true (oc <= opt);
      Alcotest.(check bool) "clique lb sound" true (cl <= opt)

let test_combined () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 2; 1; 4 |] in
  Alcotest.(check int) "combined without cycles" 10 (Bo.combined inst);
  Alcotest.(check bool) "combined with cycles at least clique" true
    (Bo.combined ~with_odd_cycles:true inst >= 10)

let test_greedy_ub_formula () =
  (* isolated-ish: a 2x2 with unit weights: each vertex has 3 neighbors
     of weight 1: bound = 3 + 4*1 - 3 = 4 *)
  let inst = S.init2 ~x:2 ~y:2 (fun _ _ -> 1) in
  Alcotest.(check int) "per vertex" 4 (Bo.greedy_vertex_ub inst 0);
  Alcotest.(check int) "max over vertices" 4 (Bo.greedy_ub inst)

let test_greedy_ub_clamped_at_weight () =
  let inst = S.make2 ~x:2 ~y:2 [| 0; 0; 0; 5 |] in
  Alcotest.(check bool) "never below own weight" true
    (Bo.greedy_vertex_ub inst 3 >= 5)

let test_degenerate_no_blocks () =
  (* 2x2 is the smallest with a block; a 1-wide instance is not allowed
     by the problem statement (X, Y > 1) but the API accepts it: then
     clique_lb falls back to the pair bound *)
  let inst = S.make2 ~x:1 ~y:4 [| 2; 3; 1; 2 |] in
  Alcotest.(check int) "falls back to pairs" 5 (Bo.clique_lb inst)

let prop_bounds_sound =
  Util.qtest ~count:40 "bounds below exact optimum" Util.gen_inst2 (fun inst ->
      match Ivc_exact.Optimize.solve ~budget:40_000 inst with
      | { Ivc_exact.Optimize.proven_optimal = false; _ } ->
          QCheck2.assume_fail ()
      | { Ivc_exact.Optimize.upper_bound = opt; _ } ->
          Bo.combined inst <= opt
          && Bo.pair_lb inst <= opt
          && Bo.weight_lb inst <= opt)

let prop_greedy_ub_holds_3d =
  Util.qtest ~count:25 "Lemma 7 bound holds in 3D" Util.gen_inst3 (fun inst ->
      let starts = Ivc.Heuristics.gzo inst in
      let ub = Bo.greedy_ub inst in
      Util.maxcolor inst starts <= ub)

let suite =
  [
    Alcotest.test_case "fixed 2x2 bounds" `Quick test_fixed_2x2;
    Alcotest.test_case "K8 bound" `Quick test_clique_lb_3d;
    Alcotest.test_case "heaviest block" `Quick test_clique_lb_picks_heaviest_block;
    Alcotest.test_case "odd cycle bound soundness" `Quick test_odd_cycle_lb_beats_clique;
    Alcotest.test_case "combined" `Quick test_combined;
    Alcotest.test_case "Lemma 7 formula" `Quick test_greedy_ub_formula;
    Alcotest.test_case "Lemma 7 clamped" `Quick test_greedy_ub_clamped_at_weight;
    Alcotest.test_case "degenerate fallback" `Quick test_degenerate_no_blocks;
    prop_bounds_sound;
    prop_greedy_ub_holds_3d;
  ]
