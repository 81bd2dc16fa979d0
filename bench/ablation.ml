(* Ablation studies beyond the paper's figures:
   - vertex orderings for the greedy engine (incl. Hilbert vs Z-order);
   - the contribution of the BDP post-optimization and of iterating it
     (the paper measures one pass: +2.49%);
   - iterated greedy (Culberson) on top of the best heuristic;
   - weight-landscape sensitivity via the structured generators;
   - scheduler policy sensitivity for the STKDE DAGs;
   - the open-problem gap hunt (Section VIII). *)

open Common
module S = Ivc_grid.Stencil
module Gen = Spatial_data.Generators

let orderings () =
  section "Ablation: vertex orderings for the greedy engine";
  let instances =
    [
      ("dengue-xy-32", Spatial_data.Gridding.grid2
         (Spatial_data.Datasets.dengue ~scale:0.3 ())
         Spatial_data.Project.XY ~x:32 ~y:32);
      ("uniform-24", Gen.uniform ~seed:1 ~bound:50 ~x:24 ~y:24);
      ("hotspots-24", Gen.hotspots ~seed:1 ~peaks:4 ~amplitude:50 ~x:24 ~y:24);
    ]
  in
  List.iter
    (fun (iname, inst) ->
      let lb = Ivc.Bounds.clique_lb inst in
      Format.fprintf fmt "@,%s (LB %d):@," iname lb;
      let rows =
        List.map
          (fun (oname, order) ->
            let starts = Ivc.Greedy.color_in_order inst (order inst) in
            let mc = Ivc.Coloring.maxcolor ~w:(inst : S.t).w starts in
            [ oname; string_of_int mc;
              Printf.sprintf "%.4f" (Float.of_int mc /. Float.of_int (max 1 lb)) ])
          Ivc.Order.all
      in
      Perfprof.Ascii.table fmt ~header:[ "order"; "maxcolor"; "vs LB" ] rows)
    instances;
  Format.fprintf fmt "@."

let post_optimization () =
  section "Ablation: BD post-optimization (the paper's BDP) and iterating it";
  let instances =
    List.map
      (fun (n, i) -> (n, i))
      (Gen.all_2d ~seed:3 ~x:20 ~y:20)
  in
  let rows =
    List.map
      (fun (name, inst) ->
        let w = (inst : S.t).w in
        let bd = (Ivc.Bipartite_decomp.bd inst).Ivc.Bipartite_decomp.starts in
        let bdp = Ivc.Bipartite_decomp.post inst bd in
        let iterated =
          Ivc.Iterated.run inst bdp
            ~passes:[ Ivc.Iterated.Reverse; Ivc.Iterated.Cliques; Ivc.Iterated.Restart ]
        in
        let mc s = Ivc.Coloring.maxcolor ~w s in
        [
          name;
          string_of_int (mc bd);
          string_of_int (mc bdp);
          string_of_int (mc iterated);
          string_of_int (Ivc.Bounds.clique_lb inst);
        ])
      instances
  in
  Perfprof.Ascii.table fmt
    ~header:[ "landscape"; "BD"; "BDP (1 pass)"; "BDP iterated"; "clique LB" ]
    rows;
  Format.fprintf fmt "@."

let iterated_greedy () =
  section "Ablation: iterated greedy (Culberson) on top of the best heuristic";
  let rows =
    List.map
      (fun (name, inst) ->
        let w = (inst : S.t).w in
        let best_name, _, best_mc =
          List.fold_left
            (fun (bn, bs, bmc) (n, s, mc) ->
              if mc < bmc then (n, s, mc) else (bn, bs, bmc))
            ("", [||], max_int) (Ivc.Algo.run_all inst)
        in
        let igr = Ivc.Iterated.best_effort inst in
        let igr_mc = Ivc.Coloring.maxcolor ~w igr in
        [
          name;
          Printf.sprintf "%s=%d" best_name best_mc;
          string_of_int igr_mc;
          Printf.sprintf "%.2f%%"
            (100.0
            *. Float.of_int (best_mc - igr_mc)
            /. Float.of_int (max 1 best_mc));
        ])
      (Gen.all_2d ~seed:5 ~x:24 ~y:24)
  in
  Perfprof.Ascii.table fmt
    ~header:[ "landscape"; "best heuristic"; "IGR"; "improvement" ]
    rows;
  Format.fprintf fmt "@."

let scheduling_policy () =
  section "Ablation: scheduler ready-queue policy on STKDE DAGs";
  let cloud = Spatial_data.Datasets.dengue ~scale:0.3 () in
  let inst =
    Spatial_data.Gridding.grid3 cloud ~x:12 ~y:12 ~z:6
  in
  let rows =
    List.map
      (fun (a : Ivc.Algo.t) ->
        let starts = a.Ivc.Algo.run inst in
        let dag =
          Taskpar.Dag.of_coloring inst ~starts ~cost:(fun v ->
              1.0 +. Float.of_int (S.weight inst v))
        in
        let time p = (Taskpar.Sim.run ~policy:p dag ~workers:6).Taskpar.Sim.makespan in
        [
          a.Ivc.Algo.name;
          Printf.sprintf "%.1f" (time Taskpar.Sim.Color_order);
          Printf.sprintf "%.1f" (time Taskpar.Sim.Lpt);
          Printf.sprintf "%.1f" (time Taskpar.Sim.Fifo);
        ])
      algorithms
  in
  Perfprof.Ascii.table fmt
    ~header:[ "coloring"; "color-order"; "LPT"; "FIFO" ]
    rows;
  Format.fprintf fmt "@."

let gap_hunt () =
  section "Open problem (Sec VIII): hunting instances above every lower bound";
  let found = Ivc_exact.Hardness.search ~time_limit_s:1.0 ~seeds:(List.init 250 Fun.id) () in
  Format.fprintf fmt "250 random sparse 4x4 instances searched, %d with a certified gap:@,"
    (List.length found);
  List.iter
    (fun g -> Format.fprintf fmt "  %s@," (Ivc_exact.Hardness.describe g))
    found;
  Format.fprintf fmt
    "(the paper: clique bound differs from the optimum on only 4.33%% of 2D \
     instances, by < 0.01%%)@.@."

let run () =
  orderings ();
  post_optimization ();
  iterated_greedy ();
  scheduling_policy ();
  gap_hunt ()
