(** Front-end exact solver: plays the role of the paper's Gurobi runs.

    Strategy: start from a certified coloring and lower bound (the
    caller's, or the best heuristic and the combined lower bound); when
    they match the instance is closed for free (the paper observes this
    happens on >95% of instances). Otherwise run the CP decision engine
    ({!Cp.optimize}) under a node budget that plays the role of the
    paper's one-day timeout, and report its bracket when the budget
    runs out. CP's memory grows with n·(k+1), so an instance with more
    than 500 000 (nonzero cell, color) pairs is not searched: the warm
    start comes back unproven, and [nodes_hint] says why. *)

type outcome = {
  lower_bound : int;
  upper_bound : int;
  starts : int array;  (** witness for [upper_bound] *)
  proven_optimal : bool;
  nodes_hint : string;  (** how the solve closed, or why it did not *)
  resumed : bool;  (** the solve continued from a snapshot *)
}

(** [solve ?budget ?time_limit_s ?cancel ?autosave ?resume ?warm inst]
    with [budget] roughly proportional to search nodes (default
    200_000; each CP probe gets ten times that) and [time_limit_s]
    bounding the wall-clock seconds spent, on the monotonic clock.
    [cancel] is polled cooperatively inside the search; when it fires
    the bracket reached so far is returned with
    [proven_optimal = false].

    [warm] is the bracket to start from when the caller already has
    one: a certified coloring, its maxcolor and a certified lower
    bound. Without it the solve computes {!Cp.warm_start}.

    [autosave] is handed to the CP search; [resume] continues a solve
    from a checkpoint decoded with {!Cp.decode_checkpoint} (node
    budgets are cumulative across the kill; time budgets restart). *)
val solve :
  ?budget:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  ?autosave:Ivc_persist.Autosave.t ->
  ?resume:Cp.checkpoint ->
  ?warm:Cp.warm ->
  Ivc_grid.Stencil.t ->
  outcome
