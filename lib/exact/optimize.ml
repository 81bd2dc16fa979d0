module Stencil = Ivc_grid.Stencil

type outcome = {
  lower_bound : int;
  upper_bound : int;
  starts : int array;
  proven_optimal : bool;
  nodes_hint : string;
  resumed : bool;
}

(* CP's store and trail grow with n·(k+1) (see cp.mli); above this the
   search is not started. *)
let cp_max_cells = 500_000

let solve ?(budget = 200_000) ?time_limit_s ?cancel ?autosave ?resume ?warm
    inst =
  Ivc_obs.Span.record ~cat:"exact"
    ~args:
      [
        ("instance", Stencil.describe inst); ("budget", string_of_int budget);
      ]
    "exact.solve"
  @@ fun () ->
  let cp ~resumed ?resume ?warm () =
    match
      Cp.optimize ~budget:(budget * 10) ?time_limit_s ?cancel ?autosave
        ?resume ?warm inst
    with
    | Cp.Optimal (v, starts) ->
        {
          lower_bound = v;
          upper_bound = v;
          starts;
          proven_optimal = true;
          nodes_hint = "CP decision search";
          resumed;
        }
    | Cp.Bounds (lo, hi, starts) ->
        {
          lower_bound = lo;
          upper_bound = hi;
          starts;
          proven_optimal = false;
          nodes_hint = "budget exhausted";
          resumed;
        }
  in
  match resume with
  | Some c -> cp ~resumed:true ~resume:c ()
  | None ->
      let w = match warm with Some w -> w | None -> Cp.warm_start inst in
      let unsearched proven_optimal nodes_hint =
        {
          lower_bound = (if proven_optimal then w.ub else w.lb);
          upper_bound = w.ub;
          starts = w.starts;
          proven_optimal;
          nodes_hint;
          resumed = false;
        }
      in
      let nonzero =
        Array.fold_left
          (fun a x -> if x > 0 then a + 1 else a)
          0 (inst : Stencil.t).w
      in
      if w.ub <= w.lb then unsearched true "closed by clique bound"
      else if nonzero * (w.ub + 1) > cp_max_cells then
        unsearched false
          (Printf.sprintf "not searched: %d cells x %d colors is over CP's %d"
             nonzero (w.ub + 1) cp_max_cells)
      else cp ~resumed:false ~warm:w ()
