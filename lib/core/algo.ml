type t = {
  name : string;
  description : string;
  run : Ivc_grid.Stencil.t -> int array;
}

let all =
  [
    { name = "GLL"; description = "greedy line-by-line"; run = Heuristics.gll };
    { name = "GZO"; description = "greedy Z-order"; run = Heuristics.gzo };
    { name = "GLF"; description = "greedy largest weight first"; run = Heuristics.glf };
    { name = "GKF"; description = "greedy largest clique first"; run = Heuristics.gkf };
    { name = "SGK"; description = "smart greedy largest clique first"; run = Heuristics.sgk };
    {
      name = "BD";
      description = "bipartite decomposition (2/4-approximation)";
      run = (fun inst -> (Bipartite_decomp.bd inst).starts);
    };
    {
      name = "BDP";
      description = "bipartite decomposition + greedy post-optimization";
      run = Bipartite_decomp.bdp;
    };
  ]

let find name =
  let up = String.uppercase_ascii name in
  List.find_opt (fun a -> a.name = up) all

let names = List.map (fun a -> a.name) all

let run_all inst =
  List.map
    (fun a ->
      let starts = a.run inst in
      (a.name, starts, Coloring.maxcolor ~w:(inst : Ivc_grid.Stencil.t).w starts))
    all

let best inst =
  List.fold_left
    (fun (b, bs) (_, starts, mc) -> if mc < b then (mc, starts) else (b, bs))
    (max_int, [||])
    (run_all inst)
