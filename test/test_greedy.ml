module S = Ivc_grid.Stencil
module G = Ivc.Greedy
module I = Ivc.Interval

let iv s l = I.make ~start:s ~len:l

let test_first_fit () =
  let ff = G.Reference.first_fit in
  Alcotest.(check int) "empty neighborhood" 0 (ff ~len:3 []);
  Alcotest.(check int) "after one block" 2 (ff ~len:3 [ iv 0 2 ]);
  Alcotest.(check int) "fits in gap" 2 (ff ~len:2 [ iv 0 2; iv 4 3 ]);
  Alcotest.(check int) "gap too small" 7 (ff ~len:3 [ iv 0 2; iv 4 3 ]);
  Alcotest.(check int) "unsorted input" 7 (ff ~len:3 [ iv 4 3; iv 0 2 ]);
  Alcotest.(check int) "zero length" 0 (ff ~len:0 [ iv 0 100 ]);
  Alcotest.(check int) "ignores empty intervals" 0 (ff ~len:5 [ iv 2 0 ]);
  Alcotest.(check int) "overlapping neighbors" 7
    (ff ~len:1 [ iv 0 5; iv 3 4 ]);
  Alcotest.(check int) "duplicate neighbors" 2 (ff ~len:9 [ iv 0 2; iv 0 2 ])

let test_color_in_order_row_major () =
  (* 1x? is forbidden (dims >= 1 is ok; use a 2x3) *)
  let inst = S.make2 ~x:2 ~y:3 [| 1; 1; 1; 1; 1; 1 |] in
  let starts = G.color_in_order inst (S.row_major_order inst) in
  Util.check_valid inst starts;
  (* row-major greedy on unit weights colors a 9-pt 2x3 like a clique
     sweep: maxcolor must be at least the largest K4 = 4 *)
  Alcotest.(check bool) "at least clique bound" true
    (Util.maxcolor inst starts >= 4)

let test_incremental_state () =
  let inst = S.make2 ~x:2 ~y:2 [| 2; 3; 4; 5 |] in
  let st = G.create inst in
  Alcotest.(check int) "remaining" 4 (G.remaining st);
  Alcotest.(check bool) "not colored" false (G.is_colored st 0);
  let s0 = G.color_vertex st 0 in
  Alcotest.(check int) "first at zero" 0 s0;
  Alcotest.(check int) "recolor is stable" 0 (G.color_vertex st 0);
  let s1 = G.color_vertex st 1 in
  Alcotest.(check int) "second stacks" 2 s1;
  Alcotest.(check int) "maxcolor" 5 (G.maxcolor st);
  G.uncolor st 1;
  Alcotest.(check bool) "uncolored" false (G.is_colored st 1);
  Alcotest.(check int) "remaining after uncolor" 3 (G.remaining st);
  let s1' = G.recolor st 1 in
  Alcotest.(check int) "recolor deterministic" 2 s1';
  let starts = G.starts st in
  Alcotest.(check int) "snapshot start" 2 starts.(1);
  Alcotest.(check int) "snapshot uncolored" (-1) starts.(3)

let test_rejects_non_permutation () =
  let inst = S.make2 ~x:2 ~y:2 [| 1; 1; 1; 1 |] in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Greedy.color_in_order: order length mismatch") (fun () ->
      ignore (G.color_in_order inst [| 0; 1 |]));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Greedy.color_in_order: order is not a permutation")
    (fun () -> ignore (G.color_in_order inst [| 0; 0; 1; 2 |]))

let test_graph_version_matches () =
  let inst = Util.random_inst2 ~seed:3 ~x:4 ~y:4 ~bound:9 in
  let order = Ivc.Heuristics.largest_first_order inst in
  let a = G.color_in_order inst order in
  let b = G.color_in_order_graph (S.to_graph inst) ~w:(inst : S.t).w order in
  Alcotest.(check (array int)) "same coloring" a b

let prop_any_order_valid =
  Util.qtest ~count:80 "greedy is valid in any order" Util.gen_inst2 (fun inst ->
      (* use a deterministic shuffled order derived from the weights *)
      let n = S.n_vertices inst in
      let order = Array.init n (fun i -> i) in
      let key v = ((S.weight inst v * 7919) + (v * 13)) mod 101 in
      Array.sort (fun a b -> compare (key a, a) (key b, b)) order;
      let starts = Ivc.Greedy.color_in_order inst order in
      Ivc.Coloring.is_valid inst starts)

(* Lemma 7: any greedy coloring ends vertex v at most at
   sum_{j in N(v)} w(j) + (d+1) w(v) - d. *)
let prop_lemma7_bound =
  Util.qtest ~count:80 "Lemma 7 per-vertex bound" Util.gen_inst2 (fun inst ->
      let starts = Ivc.Heuristics.gll inst in
      let ok = ref true in
      for v = 0 to S.n_vertices inst - 1 do
        let end_v = starts.(v) + S.weight inst v in
        if end_v > Ivc.Bounds.greedy_vertex_ub inst v then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "first_fit" `Quick test_first_fit;
    Alcotest.test_case "row-major coloring" `Quick test_color_in_order_row_major;
    Alcotest.test_case "incremental state" `Quick test_incremental_state;
    Alcotest.test_case "rejects bad orders" `Quick test_rejects_non_permutation;
    Alcotest.test_case "graph version agrees" `Quick test_graph_version_matches;
    prop_any_order_valid;
    prop_lemma7_bound;
  ]
