(** Branch-and-bound exact optimizer over greedy vertex orders.

    Rationale: if [S] is any valid interval coloring and its vertices
    are recolored by first fit in nondecreasing order of their starts
    in [S], every vertex lands at or below its start in [S] (each
    earlier-processed neighbor interval stays entirely below it). So
    the optimum equals the best greedy coloring over all vertex orders,
    and searching orders with first-fit placement is a complete exact
    method. This module explores that order space with pruning and a
    node budget. It is not on the solve path ({!Optimize} runs {!Cp}
    only): it is the independent reference the tests check CP's
    optima against, and the engine of the hardness search's tests. *)

type status = Cp.status =
  | Optimal of int * int array  (** proven optimal maxcolor + witness *)
  | Bounds of int * int * int array
      (** [(lb, ub, starts)] when the budget ran out: best known
          coloring and the residual gap *)

(** [solve ?node_budget ?restarts ?time_limit_s ?cancel inst].
    [node_budget] caps branch-and-bound nodes (default 200_000);
    [restarts] adds randomized greedy restarts to tighten the initial
    upper bound from {!Ivc.Algo.best} (default 8); [time_limit_s]
    aborts the search after that many wall-clock seconds on the
    monotonic clock. [cancel] is a cooperative cancellation poll,
    checked every 1024 branch-and-bound nodes; a [true] return aborts
    the search, yielding [Bounds] with the best incumbent found so
    far. The search undoes each move in place, so its memory is O(n)
    plus the incumbent copies. *)
val solve :
  ?node_budget:int ->
  ?restarts:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  Ivc_grid.Stencil.t ->
  status

(** Convenience accessors. *)
val lower_bound_of : status -> int

val upper_bound_of : status -> int
val is_optimal : status -> bool
val starts_of : status -> int array
