module S = Ivc_grid.Stencil
module Cp = Ivc_exact.Cp
module Obb = Ivc_exact.Order_bb
module Opt = Ivc_exact.Optimize

let test_cp_trivial () =
  let single = S.make2 ~x:1 ~y:1 [| 5 |] in
  (match Cp.decide single ~k:5 with
  | Cp.Colorable s -> Alcotest.(check int) "start 0" 0 s.(0)
  | _ -> Alcotest.fail "single vertex fits exactly");
  (match Cp.decide single ~k:4 with
  | Cp.Not_colorable -> ()
  | _ -> Alcotest.fail "cannot fit 5 in 4");
  let zeros = S.init2 ~x:3 ~y:3 (fun _ _ -> 0) in
  match Cp.decide zeros ~k:0 with
  | Cp.Colorable _ -> ()
  | _ -> Alcotest.fail "all-zero instances need no colors"

let test_cp_k4_block () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 2; 1; 4 |] in
  (match Cp.decide inst ~k:10 with
  | Cp.Colorable s -> ignore (Ivc.Coloring.assert_valid inst s)
  | _ -> Alcotest.fail "sum of weights suffices on a K4");
  match Cp.decide inst ~k:9 with
  | Cp.Not_colorable -> ()
  | _ -> Alcotest.fail "a K4 needs the full sum"

let test_cp_optimize_matches_clique () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 2; 1; 4 |] in
  match Cp.optimize inst with
  | Some (opt, starts) ->
      Alcotest.(check int) "K4 optimum" 10 opt;
      ignore (Ivc.Coloring.assert_valid inst starts)
  | None -> Alcotest.fail "budget"

let test_lower_bounds_not_tight_fig3 () =
  (* Section III-D phenomenon (Figure 3 in the paper): an instance whose
     optimum strictly exceeds both the clique bound and the best
     odd-cycle bound. The paper's exact weights were not recoverable
     from the text, so this instance was found by exhaustive search
     with the same certified property (see EXPERIMENTS.md):
     clique = 18, odd-cycle = 18, optimum = 19. *)
  let w = [| 0; 4; 0; 0; 3; 7; 7; 9; 7; 1; 0; 1; 5; 3; 8; 5 |] in
  let inst = S.make2 ~x:4 ~y:4 w in
  Alcotest.(check int) "clique bound" 18 (Ivc.Bounds.clique_lb inst);
  Alcotest.(check int) "odd cycle bound" 18 (Ivc.Bounds.odd_cycle_lb ~max_len:11 inst);
  match Cp.optimize inst with
  | Some (opt, starts) ->
      Alcotest.(check int) "optimum exceeds both" 19 opt;
      ignore (Ivc.Coloring.assert_valid inst starts)
  | None -> Alcotest.fail "budget"

let test_order_bb_simple () =
  let inst = Util.random_inst2 ~seed:31 ~x:3 ~y:3 ~bound:7 in
  match (Obb.solve inst, Cp.optimize inst) with
  | Obb.Optimal (v1, s1), Some (v2, _) ->
      Alcotest.(check int) "engines agree" v2 v1;
      ignore (Ivc.Coloring.assert_valid inst s1)
  | Obb.Bounds _, _ -> Alcotest.fail "order bb should close a 3x3"
  | _, None -> Alcotest.fail "cp budget"

let test_order_bb_accessors () =
  let o = Obb.Optimal (5, [| 0 |]) in
  Alcotest.(check int) "lb" 5 (Obb.lower_bound_of o);
  Alcotest.(check int) "ub" 5 (Obb.upper_bound_of o);
  Alcotest.(check bool) "optimal" true (Obb.is_optimal o);
  let b = Obb.Bounds (3, 7, [| 0 |]) in
  Alcotest.(check int) "lb of bounds" 3 (Obb.lower_bound_of b);
  Alcotest.(check int) "ub of bounds" 7 (Obb.upper_bound_of b);
  Alcotest.(check bool) "not optimal" false (Obb.is_optimal b)

let test_optimize_frontend () =
  let inst = Util.random_inst2 ~seed:32 ~x:4 ~y:4 ~bound:9 in
  let o = Opt.solve inst in
  Alcotest.(check bool) "lb <= ub" true (o.Opt.lower_bound <= o.Opt.upper_bound);
  Alcotest.(check bool) "witness valid" true (Ivc.Coloring.is_valid inst o.Opt.starts);
  Alcotest.(check int) "witness consistent" o.Opt.upper_bound
    (Util.maxcolor inst o.Opt.starts);
  if o.Opt.proven_optimal then
    Alcotest.(check int) "closed gap" o.Opt.lower_bound o.Opt.upper_bound

let test_optimal_value () =
  let inst = S.make2 ~x:2 ~y:2 [| 1; 1; 1; 1 |] in
  Alcotest.(check (option int)) "unit K4" (Some 4) (Opt.optimal_value inst)

let test_milp_model () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 2; 1; 4 |] in
  let text = Ivc_exact.Milp.to_string inst in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "minimizes maxcolor" true (contains "Minimize");
  Alcotest.(check bool) "objective" true (contains "obj: maxcolor");
  Alcotest.(check bool) "binaries" true (contains "Binary");
  Alcotest.(check bool) "ends" true (contains "End");
  let cont, bin, cons = Ivc_exact.Milp.model_size inst in
  Alcotest.(check int) "start vars + maxcolor" 5 cont;
  Alcotest.(check int) "one binary per edge (K4)" 6 bin;
  Alcotest.(check int) "constraints" 16 cons

let test_milp_skips_zero_weights () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 0; 0; 4 |] in
  let cont, bin, _ = Ivc_exact.Milp.model_size inst in
  Alcotest.(check int) "two start vars + maxcolor" 3 cont;
  Alcotest.(check int) "one conflicting pair" 1 bin

(* agreement between the two exact engines on random instances *)
let prop_engines_agree =
  Util.qtest ~count:25 "CP and order-BB agree" Util.gen_inst2 (fun inst ->
      match (Cp.optimize ~budget:2_000_000 inst, Obb.solve ~node_budget:400_000 inst) with
      | Some (v1, _), Obb.Optimal (v2, _) -> v1 = v2
      | _ -> QCheck2.assume_fail ())

(* exact is never above any heuristic *)
let prop_exact_below_heuristics =
  Util.qtest ~count:30 "exact <= best heuristic" Util.gen_inst2 (fun inst ->
      match Cp.optimize ~budget:2_000_000 inst with
      | None -> QCheck2.assume_fail ()
      | Some (opt, _) ->
          List.for_all (fun (_, _, mc) -> opt <= mc) (Ivc.Algo.run_all inst))

(* The decision search, pinned: (k, verdict, nodes, revisions) of
   [Cp.decide ~budget:2_000] at every k from lb - 1 to ub (combined
   lower bound, best heuristic) on seeded instances, recorded with the
   copying engine the trailed one replaced. MRV order, value order and
   the FIFO propagation order all show in these counts. *)
let cp_golden =
  [
    ( "small2", Ivc_check.Gen.small2, 1,
      [ (41, 'U', 2001, 598660); (42, 'C', 25, 1485); (43, 'C', 26, 1665);
        (44, 'C', 27, 1928); (45, 'C', 22, 823) ] );
    ( "small2", Ivc_check.Gen.small2, 10,
      [ (40, 'N', 5, 1559); (41, 'C', 27, 1231); (42, 'C', 29, 1355);
        (43, 'C', 30, 1292); (44, 'C', 31, 1399); (45, 'C', 32, 1438);
        (46, 'C', 32, 1411); (47, 'C', 32, 1323) ] );
    ( "small2", Ivc_check.Gen.small2, 11,
      [ (51, 'N', 26, 3517); (52, 'C', 13, 405); (53, 'C', 15, 469);
        (54, 'C', 15, 458) ] );
    ( "small3", Ivc_check.Gen.small3, 4,
      [ (32, 'U', 2001, 234345); (33, 'C', 47, 3622); (34, 'C', 75, 5798) ] );
    ( "small3", Ivc_check.Gen.small3, 5,
      [ (41, 'U', 2001, 245500); (42, 'C', 280, 37496); (43, 'C', 18, 1364);
        (44, 'C', 21, 1634); (45, 'C', 23, 1931); (46, 'C', 25, 2219) ] );
    ( "small3", Ivc_check.Gen.small3, 7,
      [ (38, 'U', 2001, 700200); (39, 'U', 2001, 493360); (40, 'C', 32, 5191);
        (41, 'C', 40, 7168); (42, 'C', 40, 7189); (43, 'C', 26, 2587);
        (44, 'C', 29, 2560); (45, 'C', 27, 2396); (46, 'C', 28, 2428);
        (47, 'C', 29, 2423); (48, 'C', 29, 2415) ] );
    ( "small3", Ivc_check.Gen.small3, 10,
      [ (41, 'U', 2001, 298873); (42, 'C', 508, 63746) ] );
    ( "small3", Ivc_check.Gen.small3, 11,
      [ (49, 'U', 2001, 349790); (50, 'U', 2001, 399047); (51, 'C', 14, 1084);
        (52, 'C', 17, 1097) ] );
  ]

let with_obs f =
  let was = Ivc_obs.enabled () in
  Ivc_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Ivc_obs.set_enabled was) f

let test_cp_search_pinned () =
  with_obs @@ fun () ->
  let nodes = Ivc_obs.Counter.make "exact.cp_nodes"
  and revs = Ivc_obs.Counter.make "exact.cp_revisions" in
  List.iter
    (fun (family, gen, seed, rows) ->
      let inst = gen ~seed in
      let lb = Ivc.Bounds.combined inst and ub = fst (Ivc.Algo.best inst) in
      let name = Printf.sprintf "%s seed %d" family seed in
      Alcotest.(check (list int))
        (name ^ ": k from lb - 1 to ub")
        (List.init (ub - lb + 2) (fun i -> lb - 1 + i))
        (List.map (fun (k, _, _, _) -> k) rows);
      List.iter
        (fun (k, verdict, n, r) ->
          let n0 = Ivc_obs.Counter.value nodes
          and r0 = Ivc_obs.Counter.value revs in
          let v =
            match Cp.decide ~budget:2_000 inst ~k with
            | Cp.Colorable s ->
                Util.check_valid inst s;
                Alcotest.(check bool)
                  "within k" true
                  (Util.maxcolor inst s <= k);
                'C'
            | Cp.Not_colorable -> 'N'
            | Cp.Unknown -> 'U'
          in
          Alcotest.(check (triple char int int))
            (Printf.sprintf "%s k %d: verdict, nodes, revisions" name k)
            (verdict, n, r)
            ( v,
              Ivc_obs.Counter.value nodes - n0,
              Ivc_obs.Counter.value revs - r0 ))
        rows)
    cp_golden

(* A 12x12 probe below the combined lower bound: no 1M-node search
   settles it, and the front end's CP guard holds for it
   (134 nonzero cells, best heuristic 74: 134 * 75 <= 500_000). *)
let hard_probe () = (Util.random_inst2 ~seed:1 ~x:12 ~y:12 ~bound:20, 61)

(* Search nodes allocate nothing: domains are undone from a trail, not
   copied. An engine that copies every domain for each child it tries
   allocated about 480 KB per node on this probe. [Cp.optimize] with an
   autosave that is never due allocates nothing per node either: a node
   hands the token a payload thunk built once per probe, and a probe
   record is only made when a snapshot is written. Each run is measured
   three times and the least allocation counts: one suite run in about
   twenty measured an extra 1.8 MB once, from outside the search. *)
let test_cp_allocation_per_node () =
  let inst, k = hard_probe () in
  let bound = 64.0 in
  let least_per_node what run =
    let once () =
      let a0 = Gc.allocated_bytes () in
      let nodes = run () in
      (Gc.allocated_bytes () -. a0) /. Float.of_int nodes
    in
    let least =
      List.fold_left Float.min infinity (List.init 3 (fun _ -> once ()))
    in
    if least >= bound then
      Alcotest.failf
        "%s: %.0f bytes allocated per node (setup included), bound %.0f" what
        least bound
  in
  let budget = 2_000 in
  least_per_node "decide" (fun () ->
      match Cp.decide ~budget inst ~k with
      | Cp.Unknown -> budget
      | _ -> Alcotest.fail "the probe should exhaust its node budget");
  (* The bracket's second probe exhausts 20 000 nodes; the warm start
     is computed outside the measurement. *)
  let warm = Ivc.Algo.best inst in
  let path = Filename.temp_file "ivc-cp-alloc" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_obs @@ fun () ->
  let nodes = Ivc_obs.Counter.make "exact.cp_nodes" in
  least_per_node "optimize with autosave" (fun () ->
      let autosave = Ivc_persist.Autosave.make ~every_s:1e9 path in
      let n0 = Ivc_obs.Counter.value nodes in
      (match Cp.optimize ~budget:20_000 ~autosave ~warm inst with
      | None -> ()
      | Some _ -> Alcotest.fail "the bracket should exhaust a probe budget");
      Alcotest.(check int) "no snapshot is due" 0
        (Ivc_persist.Autosave.saves autosave);
      Ivc_obs.Counter.value nodes - n0)

(* [time_limit_s] is wall-clock time: with another domain busy, a
   process-CPU clock would run out in about half the time. *)
let test_cp_time_limit_wall_clock () =
  let inst, k = hard_probe () in
  let stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        let spins = ref 0 in
        while not (Atomic.get stop) do
          incr spins
        done;
        !spins)
  in
  let limit = 0.5 in
  let t0 = Ivc_obs.now_ns () in
  let verdict = Cp.decide ~time_limit_s:limit inst ~k in
  let elapsed = Ivc_obs.elapsed_s ~since:t0 in
  Atomic.set stop true;
  ignore (Domain.join spinner);
  Alcotest.(check bool) "gave up" true (verdict = Cp.Unknown);
  if elapsed < limit then
    Alcotest.failf "gave up after %.2f s of a %.1f s limit" elapsed limit;
  if elapsed > limit +. 5.0 then
    Alcotest.failf "took %.2f s to give up on a %.1f s limit" elapsed limit

let suite =
  [
    Alcotest.test_case "cp trivial cases" `Quick test_cp_trivial;
    Alcotest.test_case "cp K4 block" `Quick test_cp_k4_block;
    Alcotest.test_case "cp optimize" `Quick test_cp_optimize_matches_clique;
    Alcotest.test_case "lower bounds not tight (Fig 3)" `Quick test_lower_bounds_not_tight_fig3;
    Alcotest.test_case "order-bb vs cp" `Quick test_order_bb_simple;
    Alcotest.test_case "order-bb accessors" `Quick test_order_bb_accessors;
    Alcotest.test_case "optimize front-end" `Quick test_optimize_frontend;
    Alcotest.test_case "optimal_value" `Quick test_optimal_value;
    Alcotest.test_case "milp model" `Quick test_milp_model;
    Alcotest.test_case "milp skips zero weights" `Quick test_milp_skips_zero_weights;
    prop_engines_agree;
    prop_exact_below_heuristics;
    Alcotest.test_case "cp search pinned" `Quick test_cp_search_pinned;
    Alcotest.test_case "cp allocation per node" `Quick
      test_cp_allocation_per_node;
    Alcotest.test_case "cp time limit is wall clock" `Quick
      test_cp_time_limit_wall_clock;
  ]
