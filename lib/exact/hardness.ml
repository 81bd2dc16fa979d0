module Stencil = Ivc_grid.Stencil

type gap_instance = {
  inst : Stencil.t;
  clique_lb : int;
  odd_cycle_lb : int;
  optimum : int;
  seed : int;
}

let random_sparse ~seed ~x ~y ~weight_bound ~zero_bias =
  let rng = Spatial_data.Rng.create seed in
  let w =
    Array.init (x * y) (fun _ ->
        if Spatial_data.Rng.bool rng zero_bias then 0
        else 1 + Spatial_data.Rng.int rng weight_bound)
  in
  Stencil.make2 ~x ~y w

let search ?(x = 4) ?(y = 4) ?(weight_bound = 9) ?(zero_bias = 0.45)
    ?(time_limit_s = 2.0) ~seeds () =
  List.filter_map
    (fun seed ->
      let inst = random_sparse ~seed ~x ~y ~weight_bound ~zero_bias in
      let clique_lb = Ivc.Bounds.clique_lb inst in
      if clique_lb = 0 then None
      else
        match Cp.optimize ~time_limit_s inst with
        | Cp.Optimal (optimum, _) when optimum > clique_lb ->
            let odd_cycle_lb = Ivc.Bounds.odd_cycle_lb ~max_len:11 inst in
            if optimum > odd_cycle_lb then
              Some { inst; clique_lb; odd_cycle_lb; optimum; seed }
            else None
        | _ -> None)
    seeds

let relative_gap g =
  Float.of_int (g.optimum - max g.clique_lb g.odd_cycle_lb)
  /. Float.of_int (max 1 g.optimum)

let describe g =
  Printf.sprintf "seed %d: %s clique=%d oddcycle=%d opt=%d (gap %.2f%%)" g.seed
    (Stencil.describe g.inst) g.clique_lb g.odd_cycle_lb g.optimum
    (100.0 *. relative_gap g)
