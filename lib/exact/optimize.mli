(** Front-end exact solver: plays the role of the paper's Gurobi runs.

    Strategy: compute the clique lower bound and the best heuristic
    upper bound; when they match the instance is closed for free (the
    paper observes this happens on >95% of instances). Otherwise run
    the CP decision engine when the color count is small, falling back
    to the order-space branch-and-bound, both under a budget that plays
    the role of the paper's one-day timeout. *)

type outcome = {
  lower_bound : int;
  upper_bound : int;
  starts : int array;  (** witness for [upper_bound] *)
  proven_optimal : bool;
  nodes_hint : string;  (** which engine closed (or failed to close) *)
  resumed : bool;  (** the solve continued from a snapshot *)
}

(** {1 Crash-safe checkpointing}

    Both engines behind this front end checkpoint into a shared file;
    the snapshot's kind tag records which engine saved it, and
    {!plan_resume} dispatches a loaded snapshot back to that engine. *)

type resume_plan =
  | Order_bb_plan of Order_bb.checkpoint
  | Cp_plan of Cp.checkpoint

val plan_resume :
  inst:Ivc_grid.Stencil.t ->
  Ivc_persist.Snapshot.t ->
  (resume_plan, Ivc_persist.Snapshot.error) result
(** Decode a snapshot into whichever engine's checkpoint it holds.
    Fails closed with a typed error on any mismatch; callers fall back
    to a fresh solve and report the reason. *)

(** [solve ?budget ?time_limit_s ?cancel ?autosave ?resume ?warm inst]
    with [budget] roughly proportional to search nodes (default
    200_000) and [time_limit_s] bounding the wall-clock seconds spent,
    on the monotonic clock. [cancel] is polled cooperatively inside
    both engines; when it fires the best incumbent found so far is
    returned with [proven_optimal = false].

    [warm] is the best heuristic coloring [(maxcolor, starts)] when
    the caller already ran the heuristics: both engines start from it
    instead of running {!Ivc.Algo.best} again. It must be a valid
    coloring of [inst]; passing {!Ivc.Algo.best}'s pick leaves the
    search unchanged.

    [autosave] is handed to whichever engine runs; [resume] continues a
    solve from a plan produced by {!plan_resume} (node budgets are
    cumulative across the kill; time budgets restart). *)
val solve :
  ?budget:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  ?autosave:Ivc_persist.Autosave.t ->
  ?resume:resume_plan ->
  ?warm:int * int array ->
  Ivc_grid.Stencil.t ->
  outcome

(** [optimal_value ?budget ?time_limit_s ?cancel inst] returns
    [Some maxcolor*] iff optimality was proven within budget. *)
val optimal_value :
  ?budget:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  Ivc_grid.Stencil.t ->
  int option
