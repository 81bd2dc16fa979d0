(** Branch-and-bound exact optimizer over greedy vertex orders.

    Rationale: if [S] is any valid interval coloring and its vertices
    are recolored by first fit in nondecreasing order of their starts
    in [S], every vertex lands at or below its start in [S] (each
    earlier-processed neighbor interval stays entirely below it). So
    the optimum equals the best greedy coloring over all vertex orders,
    and searching orders with first-fit placement is a complete exact
    method. This module explores that order space with pruning and a
    node budget — our stand-in for the paper's one-day Gurobi runs
    (Section VI-D). *)

type status =
  | Optimal of int * int array  (** proven optimal maxcolor + witness *)
  | Bounds of int * int * int array
      (** [(lb, ub, starts)] when the budget ran out: best known
          coloring and the residual gap *)

(** {1 Crash-safe checkpointing}

    The search is deterministic depth-first exploration, so its open
    frontier is exactly the current DFS path: a checkpoint records the
    incumbent, the proven bounds, the cumulative node count and, for
    each depth, the branch cursor taken. Resuming replays that path in
    O(depth) and continues every sibling loop where the killed run
    stopped — a resumed solve explores the same remaining tree as an
    uninterrupted one and (budgets being cumulative) terminates with
    the same status. *)

type checkpoint = {
  fp : int64;  (** instance fingerprint, see {!Ivc_persist.Snapshot} *)
  lb : int;
  best : int;  (** incumbent maxcolor *)
  best_starts : int array;
  nodes : int;
      (** nodes already spent, the node being entered when the checkpoint
          was written included; a resume enters that node again without
          counting it twice, so budgets are cumulative *)
  path : int array;  (** DFS frontier: branch cursor per depth *)
}

val kind : string
(** Snapshot kind tag, ["order-bb"]. *)

val encode_checkpoint : checkpoint -> string

val decode_checkpoint :
  inst:Ivc_grid.Stencil.t ->
  Ivc_persist.Snapshot.t ->
  (checkpoint, Ivc_persist.Snapshot.error) result
(** Fails closed: kind, fingerprint, incumbent length and path cursors
    are all validated; any mismatch is a typed error, never a wrong
    resume. *)

val checkpoint_of_incumbent :
  Ivc_grid.Stencil.t ->
  lb:int ->
  best:int ->
  best_starts:int array ->
  checkpoint
(** A frontier-less checkpoint (empty path): resuming from it starts a
    fresh search seeded with the given incumbent and bounds. Used to
    hand a bracket from another engine to this one. *)

(** [solve ?node_budget ?restarts ?time_limit_s ?cancel ?autosave
    ?resume ?warm inst]. [node_budget] caps branch-and-bound nodes
    (default 200_000); [restarts] adds randomized greedy restarts to
    tighten the initial upper bound (default 8); [time_limit_s] aborts
    the search after that many wall-clock seconds on the monotonic
    clock (the paper's one-day-timeout analogue); [warm] is the best
    heuristic coloring [(maxcolor, starts)] when the caller already
    ran the heuristics, which the restarts then improve on instead of
    a fresh {!Ivc.Algo.best}.
    [cancel] is a cooperative cancellation poll (e.g. a deadline token
    from [Ivc_resilient.Deadline]): it is checked every 1024
    branch-and-bound nodes, and a [true] return aborts the search,
    yielding [Bounds] with the best incumbent found so far.

    [autosave] checkpoints the frontier through the token every 16
    nodes (subject to the token's cadence). [resume] restores a
    checkpoint previously decoded with {!decode_checkpoint}: the
    initial heuristic and randomized restarts are skipped in favor of
    the snapshot's incumbent. The search undoes each move in place,
    so its memory is O(n) plus the incumbent copies. *)
val solve :
  ?node_budget:int ->
  ?restarts:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  ?autosave:Ivc_persist.Autosave.t ->
  ?resume:checkpoint ->
  ?warm:int * int array ->
  Ivc_grid.Stencil.t ->
  status

(** Convenience accessors. *)
val lower_bound_of : status -> int

val upper_bound_of : status -> int
val is_optimal : status -> bool
val starts_of : status -> int array
