type entry = {
  dataset : string;
  plane : string;
  bandwidth : float;
  inst : Ivc_grid.Stencil.t;
}

let describe e =
  Printf.sprintf "%s/%s bw=%.4f %s" e.dataset e.plane e.bandwidth
    (Ivc_grid.Stencil.describe e.inst)

let bandwidth_fracs_2d = [ 1. /. 32.; 1. /. 64.; 1. /. 128. ]
let bandwidth_fracs_3d = [ 1. /. 8.; 1. /. 16.; 1. /. 32.; 1. /. 64. ]

let allowed_dims ~size ~bw =
  let maxd = int_of_float (size /. (2.0 *. bw)) in
  let maxd = max 2 maxd in
  let rec powers p acc = if p > maxd then List.rev acc else powers (2 * p) (p :: acc) in
  let ps = powers 2 [] in
  if List.mem maxd ps then ps else ps @ [ maxd ]

(* Keep one entry in [sub], in enumeration order, then grid only the
   kept ones: each entry is enumerated as a thunk. *)
let subsampled sub entries =
  let kept =
    if sub <= 1 then entries
    else List.filteri (fun i _ -> i mod sub = 0) entries
  in
  List.map (fun entry -> entry ()) kept

let entries_2d ?(scale = 1.0) ?(subsample = 1) () =
  let clouds = Datasets.all ~scale () in
  let acc = ref [] in
  List.iter
    (fun cloud ->
      let extent = Points.extent cloud in
      List.iter
        (fun plane ->
          let u0, u1, v0, v1 = Project.bbox plane cloud in
          List.iter
            (fun frac ->
              let bw = frac *. extent in
              let xs = allowed_dims ~size:(u1 -. u0) ~bw in
              let ys = allowed_dims ~size:(v1 -. v0) ~bw in
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      acc :=
                        (fun () ->
                          {
                            dataset = cloud.Points.name;
                            plane = Project.plane_name plane;
                            bandwidth = frac;
                            inst = Gridding.grid2 cloud plane ~x ~y;
                          })
                        :: !acc)
                    ys)
                xs)
            bandwidth_fracs_2d)
        Project.all_planes)
    clouds;
  subsampled subsample (List.rev !acc)

let entries_3d ?(scale = 1.0) ?(subsample = 1) () =
  let clouds = Datasets.all ~scale () in
  let acc = ref [] in
  List.iter
    (fun cloud ->
      let extent = Points.extent cloud in
      List.iter
        (fun frac ->
          let bw = frac *. extent in
          let xs = allowed_dims ~size:(cloud.Points.x1 -. cloud.Points.x0) ~bw in
          let ys = allowed_dims ~size:(cloud.Points.y1 -. cloud.Points.y0) ~bw in
          (* the time axis uses the same fraction of its own span *)
          let zs =
            allowed_dims
              ~size:(cloud.Points.t1 -. cloud.Points.t0)
              ~bw:(frac *. (cloud.Points.t1 -. cloud.Points.t0))
          in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  List.iter
                    (fun z ->
                      acc :=
                        (fun () ->
                          {
                            dataset = cloud.Points.name;
                            plane = "xyz";
                            bandwidth = frac;
                            inst = Gridding.grid3 cloud ~x ~y ~z;
                          })
                        :: !acc)
                    zs)
                ys)
            xs)
        bandwidth_fracs_3d)
    clouds;
  subsampled subsample (List.rev !acc)
