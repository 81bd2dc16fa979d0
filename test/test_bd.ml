module S = Ivc_grid.Stencil
module BD = Ivc.Bipartite_decomp

let test_bd2_valid_and_bounded () =
  let inst = Util.random_inst2 ~seed:14 ~x:8 ~y:7 ~bound:30 in
  let r = BD.bd2 inst in
  Util.check_valid inst r.BD.starts;
  let mc = Util.maxcolor inst r.BD.starts in
  Alcotest.(check bool) "uses at most 2 RC" true (mc <= 2 * r.BD.part_colors);
  (* RC is a valid lower bound: no heuristic may beat it *)
  Alcotest.(check bool) "RC is a lower bound" true
    (r.BD.lower_bound <= Util.maxcolor inst (Ivc.Heuristics.sgk inst))

let test_bd2_2approx_vs_exact () =
  let inst = Util.random_inst2 ~seed:15 ~x:4 ~y:4 ~bound:8 in
  match Ivc_exact.Cp.optimize inst with
  | Ivc_exact.Cp.Bounds _ -> Alcotest.fail "exact budget"
  | Ivc_exact.Cp.Optimal (opt, _) ->
      let r = BD.bd2 inst in
      let mc = Util.maxcolor inst r.BD.starts in
      Alcotest.(check bool) "lower bound sound" true (r.BD.lower_bound <= opt);
      Alcotest.(check bool) "2-approximation" true (mc <= 2 * opt)

let test_bd3_valid_and_4approx () =
  let inst = Util.random_inst3 ~seed:16 ~x:3 ~y:3 ~z:3 ~bound:6 in
  let r = BD.bd3 inst in
  Util.check_valid inst r.BD.starts;
  match Ivc_exact.Optimize.solve ~budget:60_000 inst with
  | { Ivc_exact.Optimize.proven_optimal = true; upper_bound = opt; _ } ->
      let mc = Util.maxcolor inst r.BD.starts in
      Alcotest.(check bool) "4-approximation" true (mc <= 4 * opt);
      Alcotest.(check bool) "lb sound" true (r.BD.lower_bound <= opt)
  | _ -> () (* exact did not close; approximation claim untestable here *)

let test_row_structure () =
  (* even rows (j even) must use colors in [0, RC), odd rows in [RC, 2RC) *)
  let inst = Util.random_inst2 ~seed:17 ~x:5 ~y:6 ~bound:10 in
  let r = BD.bd2 inst in
  let rc = r.BD.part_colors in
  for v = 0 to S.n_vertices inst - 1 do
    let _, j = S.coord2 inst v in
    let s = r.BD.starts.(v) in
    let e = s + S.weight inst v in
    if j land 1 = 0 then
      Alcotest.(check bool) "even row low" true (s >= 0 && e <= rc)
    else Alcotest.(check bool) "odd row high" true (s >= rc && e <= 2 * rc)
  done

let test_post_never_worse_pointwise () =
  let inst = Util.random_inst2 ~seed:18 ~x:7 ~y:5 ~bound:18 in
  let r = BD.bd inst in
  let post = BD.post inst r.BD.starts in
  Util.check_valid inst post;
  for v = 0 to S.n_vertices inst - 1 do
    Alcotest.(check bool) "start can only decrease" true (post.(v) <= r.BD.starts.(v))
  done

let test_post_order_dedupes () =
  let inst = Util.random_inst2 ~seed:19 ~x:4 ~y:4 ~bound:9 in
  let r = BD.bd inst in
  let order = BD.post_order inst r.BD.starts in
  let n = S.n_vertices inst in
  Alcotest.(check int) "covers all vertices" n (Array.length order);
  let seen = Array.make n false in
  Array.iter (fun v -> seen.(v) <- true) order;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_bdp_valid_3d () =
  let inst = Util.random_inst3 ~seed:20 ~x:3 ~y:4 ~z:3 ~bound:9 in
  Util.check_valid inst (BD.bdp inst)

let test_dimension_checks () =
  let i2 = S.init2 ~x:2 ~y:2 (fun _ _ -> 1) in
  let i3 = S.init3 ~x:2 ~y:2 ~z:2 (fun _ _ _ -> 1) in
  Alcotest.check_raises "bd2 on 3d" (Invalid_argument "Bipartite_decomp.bd2: 3D instance")
    (fun () -> ignore (BD.bd2 i3));
  Alcotest.check_raises "bd3 on 2d" (Invalid_argument "Bipartite_decomp.bd3: 2D instance")
    (fun () -> ignore (BD.bd3 i2));
  (* dispatching wrapper accepts both *)
  Util.check_valid i2 (BD.bd i2).BD.starts;
  Util.check_valid i3 (BD.bd i3).BD.starts

let prop_bd_2approx_certificate =
  Util.qtest ~count:60 "BD certificate maxcolor <= 2 RC <= 2 opt" Util.gen_inst2
    (fun inst ->
      let r = BD.bd2 inst in
      Ivc.Coloring.is_valid inst r.BD.starts
      && Util.maxcolor inst r.BD.starts <= 2 * max 1 r.BD.part_colors)

let prop_bdp_valid_and_not_worse =
  Util.qtest ~count:60 "BDP valid and never above BD" Util.gen_inst2 (fun inst ->
      let bd = BD.bd inst in
      let bdp = BD.bdp inst in
      Ivc.Coloring.is_valid inst bdp
      && Util.maxcolor inst bdp <= Util.maxcolor inst bd.BD.starts)

let prop_bd3_within_4rc =
  Util.qtest ~count:30 "3D BD within 4x its per-layer lower bound" Util.gen_inst3
    (fun inst ->
      let r = BD.bd3 inst in
      Ivc.Coloring.is_valid inst r.BD.starts
      && Util.maxcolor inst r.BD.starts <= 4 * max 1 r.BD.lower_bound)

let suite =
  [
    Alcotest.test_case "bd2 valid and bounded" `Quick test_bd2_valid_and_bounded;
    Alcotest.test_case "bd2 2-approx vs exact" `Quick test_bd2_2approx_vs_exact;
    Alcotest.test_case "bd3 valid, 4-approx" `Quick test_bd3_valid_and_4approx;
    Alcotest.test_case "row offsetting structure" `Quick test_row_structure;
    Alcotest.test_case "post never raises a start" `Quick test_post_never_worse_pointwise;
    Alcotest.test_case "post order is a permutation" `Quick test_post_order_dedupes;
    Alcotest.test_case "bdp valid in 3D" `Quick test_bdp_valid_3d;
    Alcotest.test_case "dimension checks" `Quick test_dimension_checks;
    prop_bd_2approx_certificate;
    prop_bdp_valid_and_not_worse;
    prop_bd3_within_4rc;
  ]
