module Rng = Spatial_data.Rng
module P = Spatial_data.Points
module D = Spatial_data.Datasets
module Pr = Spatial_data.Project
module G = Spatial_data.Gridding
module Cat = Spatial_data.Catalog

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seeds differ" true (Rng.next a <> Rng.next c)

let test_rng_ranges () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int range" true (v >= 0 && v < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 1.0);
    let g = Rng.range r 2.0 5.0 in
    Alcotest.(check bool) "range" true (g >= 2.0 && g < 5.0)
  done

let test_rng_distributions () =
  let r = Rng.create 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.gaussian r
  done;
  Alcotest.(check bool) "gaussian mean near 0" true
    (Float.abs (!sum /. Float.of_int n) < 0.05);
  let counts = Array.make 3 0 in
  for _ = 1 to n do
    let i = Rng.categorical r [| 1.0; 2.0; 1.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "categorical favors heavy" true
    (counts.(1) > counts.(0) && counts.(1) > counts.(2));
  let e = Rng.exponential r ~rate:2.0 in
  Alcotest.(check bool) "exponential positive" true (e >= 0.0)

let test_points_bbox () =
  let c =
    P.make "t" [| { P.x = 1.0; y = 5.0; t = 0.0 }; { P.x = 3.0; y = 2.0; t = 7.0 } |]
  in
  Alcotest.(check (float 1e-9)) "x0" 1.0 c.P.x0;
  Alcotest.(check (float 1e-9)) "x1" 3.0 c.P.x1;
  Alcotest.(check (float 1e-9)) "y0" 2.0 c.P.y0;
  Alcotest.(check (float 1e-9)) "t1" 7.0 c.P.t1;
  Alcotest.(check int) "size" 2 (P.size c);
  Alcotest.(check (float 1e-9)) "extent" 3.0 (P.extent c)

let test_points_degenerate () =
  let c = P.make "t" [| { P.x = 1.0; y = 1.0; t = 1.0 } |] in
  Alcotest.(check bool) "widened" true (c.P.x1 > c.P.x0 && c.P.t1 > c.P.t0)

let test_datasets_deterministic () =
  let a = D.dengue ~scale:0.05 () and b = D.dengue ~scale:0.05 () in
  Alcotest.(check int) "same size" (P.size a) (P.size b);
  Alcotest.(check bool) "same points" true (a.P.points = b.P.points)

let test_dataset_characters () =
  let scale = 0.1 in
  let dengue = D.dengue ~scale () and flu = D.flu_animal ~scale () in
  let grid c = G.grid2 c Pr.XY ~x:16 ~y:16 in
  (* FluAnimal is the sparse one (the paper discusses this) *)
  Alcotest.(check bool) "flu sparser than dengue" true
    (G.sparsity (grid flu) > G.sparsity (grid dengue));
  (* names as in the paper *)
  Alcotest.(check (list string)) "names"
    [ "Dengue"; "FluAnimal"; "Pollen"; "PollenUS" ]
    (List.map (fun c -> c.P.name) (D.all ~scale ()));
  (* PollenUS is a restriction of Pollen *)
  let pollen = D.pollen ~scale () and pus = D.pollen_us ~scale () in
  Alcotest.(check bool) "restriction is smaller" true (P.size pus < P.size pollen)

let test_projections () =
  let p = { P.x = 1.0; y = 2.0; t = 3.0 } in
  Alcotest.(check (pair (float 0.) (float 0.))) "xy" (1.0, 2.0) (Pr.coords Pr.XY p);
  Alcotest.(check (pair (float 0.) (float 0.))) "xt" (1.0, 3.0) (Pr.coords Pr.XT p);
  Alcotest.(check (pair (float 0.) (float 0.))) "yt" (2.0, 3.0) (Pr.coords Pr.YT p);
  Alcotest.(check (list string)) "plane names" [ "xy"; "xt"; "yt" ]
    (List.map Pr.plane_name Pr.all_planes)

let test_cell_of () =
  Alcotest.(check int) "low edge" 0 (G.cell_of ~lo:0.0 ~hi:10.0 ~cells:5 0.0);
  Alcotest.(check int) "interior" 2 (G.cell_of ~lo:0.0 ~hi:10.0 ~cells:5 4.5);
  Alcotest.(check int) "high edge clamps" 4 (G.cell_of ~lo:0.0 ~hi:10.0 ~cells:5 10.0);
  Alcotest.(check int) "above clamps" 4 (G.cell_of ~lo:0.0 ~hi:10.0 ~cells:5 99.0);
  Alcotest.(check int) "below clamps" 0 (G.cell_of ~lo:0.0 ~hi:10.0 ~cells:5 (-1.0))

let test_gridding_conserves_mass () =
  let cloud = D.dengue ~scale:0.05 () in
  List.iter
    (fun plane ->
      let inst = G.grid2 cloud plane ~x:8 ~y:8 in
      Alcotest.(check int)
        ("2D mass " ^ Pr.plane_name plane)
        (P.size cloud)
        (Ivc_grid.Stencil.total_weight inst))
    Pr.all_planes;
  let inst3 = G.grid3 cloud ~x:4 ~y:4 ~z:4 in
  Alcotest.(check int) "3D mass" (P.size cloud) (Ivc_grid.Stencil.total_weight inst3)

let test_allowed_dims () =
  Alcotest.(check (list int)) "powers plus max" [ 2; 4; 8; 16; 25 ]
    (Cat.allowed_dims ~size:100.0 ~bw:2.0);
  Alcotest.(check (list int)) "exact power" [ 2; 4; 8; 16 ]
    (Cat.allowed_dims ~size:64.0 ~bw:2.0);
  Alcotest.(check (list int)) "tiny domain" [ 2 ]
    (Cat.allowed_dims ~size:1.0 ~bw:10.0)

let test_catalog () =
  let e2 = Cat.entries_2d ~scale:0.02 () in
  let e3 = Cat.entries_3d ~scale:0.02 () in
  Alcotest.(check bool) "hundreds of 2D instances" true (List.length e2 > 300);
  Alcotest.(check bool) "hundreds of 3D instances" true (List.length e3 > 300);
  (* every entry respects the problem statement X,Y(,Z) >= 2 *)
  List.iter
    (fun e ->
      match (e.Cat.inst : Ivc_grid.Stencil.t).Ivc_grid.Stencil.dims with
      | Ivc_grid.Stencil.D2 (x, y) ->
          Alcotest.(check bool) "2D dims >= 2" true (x >= 2 && y >= 2)
      | Ivc_grid.Stencil.D3 (x, y, z) ->
          Alcotest.(check bool) "3D dims >= 2" true (x >= 2 && y >= 2 && z >= 2))
    (e2 @ e3);
  (* subsampling keeps every 10th entry, in order *)
  let fingerprints =
    List.map (fun e -> Ivc_persist.Snapshot.fingerprint e.Cat.inst)
  in
  let every_10th = List.filteri (fun i _ -> i mod 10 = 0) in
  let sub = Cat.entries_2d ~scale:0.02 ~subsample:10 () in
  Alcotest.(check bool) "subsample shrinks" true
    (List.length sub <= (List.length e2 / 10) + 1);
  Alcotest.(check (list int64)) "2D subsample is every 10th entry"
    (fingerprints (every_10th e2)) (fingerprints sub);
  Alcotest.(check (list int64)) "3D subsample is every 10th entry"
    (fingerprints (every_10th e3))
    (fingerprints (Cat.entries_3d ~scale:0.02 ~subsample:10 ()));
  (* describe produces something useful *)
  match e2 with
  | e :: _ -> Alcotest.(check bool) "describe" true (String.length (Cat.describe e) > 10)
  | [] -> Alcotest.fail "empty catalog"

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng distributions" `Quick test_rng_distributions;
    Alcotest.test_case "points bbox" `Quick test_points_bbox;
    Alcotest.test_case "degenerate cloud widened" `Quick test_points_degenerate;
    Alcotest.test_case "datasets deterministic" `Quick test_datasets_deterministic;
    Alcotest.test_case "dataset characters" `Quick test_dataset_characters;
    Alcotest.test_case "projections" `Quick test_projections;
    Alcotest.test_case "cell_of" `Quick test_cell_of;
    Alcotest.test_case "gridding conserves mass" `Quick test_gridding_conserves_mass;
    Alcotest.test_case "allowed dims" `Quick test_allowed_dims;
    Alcotest.test_case "catalog" `Quick test_catalog;
  ]
