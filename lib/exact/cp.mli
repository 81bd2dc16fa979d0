(** Constraint-propagation decision solver for IVC: is a stencil
    instance colorable with at most [k] colors? A binary search over
    [k] ({!optimize}) is the exact engine of the solve path: it stands
    in for the paper's Gurobi runs behind {!Optimize.solve}.

    Domains are explicit sets of candidate starts (size at most [k]),
    so memory grows with n·(k+1); {!Optimize.solve} runs it only where
    that product is at most 500 000. It maintains pairwise arc
    consistency on the disjointness constraints and searches with
    minimum-remaining-values branching (the first smallest domain with
    more than one value, values ascending).

    Domains are bitsets in one flat store with cached min, max and
    size; a revision clears the one unsupported range word by word.
    The search changes the store in place and pushes the old value of
    every word or counter it changes on a trail, which backtracking
    undoes, so no node copies a domain. The store takes about
    n·(k+1)/62 words. A word or counter changes only when its domain
    loses a value, so the trail holds at most four entries per value
    removed along the current search path, at most 4·n·(k+1) entries
    whatever the node budget. Nothing is allocated per search node,
    and {!optimize} under an autosave token builds a checkpoint only
    when one is due.

    Zero-weight vertices never conflict and are fixed at start 0. *)

type verdict =
  | Colorable of int array  (** a valid coloring within [k] colors *)
  | Not_colorable
  | Unknown  (** node budget exhausted *)

(** [decide ?budget ?time_limit_s ?cancel inst ~k]. [budget] caps the
    number of search nodes (default 10_000_000); [time_limit_s] caps
    wall-clock seconds on the monotonic clock ({!Ivc_obs.now_ns}),
    checked every 256 search nodes; [cancel] is polled cooperatively
    every 256 search nodes and every 8192 constraint revisions. Any
    limit firing makes the verdict [Unknown]. *)
val decide :
  ?budget:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  Ivc_grid.Stencil.t ->
  k:int ->
  verdict

(** Decision on an arbitrary weighted graph; used to machine-check the
    special-case theorems of Section III against their constructive
    algorithms. *)
val decide_graph :
  ?budget:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  Ivc_graph.Csr.t ->
  w:int array ->
  k:int ->
  verdict

(** {1 Crash-safe checkpointing}

    [optimize] is a binary search whose probes are deterministic DFS
    decision solves, so its whole state is the bracket [(lo, hi)] with
    its witness plus — while a probe is in flight — that probe's node
    count and decision path. Resume replays the path in O(depth) and
    continues the value loops from the stored cursors. *)

type probe = {
  k : int;  (** the probed color count (the bracket's midpoint) *)
  nodes : int;
      (** nodes spent in this probe, the node being entered when the
          checkpoint was written included; a resume enters that node
          again without counting it twice, so budgets are cumulative *)
  path : int array;  (** flattened (variable, value) decision pairs *)
}

type checkpoint = {
  fp : int64;  (** instance fingerprint *)
  lo : int;
  hi : int;  (** bracket invariant: colorable with [hi] *)
  best_starts : int array;  (** witness for [hi] *)
  probe : probe option;  (** in-flight decision probe, if any *)
}

val kind : string
(** Snapshot kind tag, ["cp-opt"]. *)

val encode_checkpoint : checkpoint -> string

val decode_checkpoint :
  inst:Ivc_grid.Stencil.t ->
  Ivc_persist.Snapshot.t ->
  (checkpoint, Ivc_persist.Snapshot.error) result
(** Fails closed: kind, fingerprint, bracket sanity, probe/bracket
    consistency and path well-formedness are all validated. *)

type status =
  | Optimal of int * int array  (** proven optimal maxcolor + witness *)
  | Bounds of int * int * int array
      (** [(lo, hi, starts)] when a limit stopped the search: the
          optimum lies in [[lo, hi]] and [starts] colors within [hi] *)

type warm = {
  lb : int;  (** a certified lower bound on the optimum *)
  ub : int;  (** the maxcolor of [starts] *)
  starts : int array;  (** a valid coloring of the instance *)
}
(** The bracket a search starts from. *)

val warm_start : Ivc_grid.Stencil.t -> warm
(** {!Ivc.Bounds.combined} and {!Ivc.Algo.best}'s pick. *)

(** Exact optimum via binary search on [k] over the bracket
    [[warm.lb, warm.ub]]. Returns [Optimal (opt, starts)], or the
    bracket reached so far as [Bounds] when a probe ran out of its
    node budget, [time_limit_s] ran out or [cancel] fired. [budget]
    caps the nodes of each probe; [time_limit_s] bounds the whole
    search in wall-clock seconds.

    [warm] defaults to {!warm_start}; a caller that already has a
    certified coloring and lower bound passes them, and the search
    starts from that bracket instead of computing one.

    [autosave] checkpoints the bracket (and the in-flight probe's
    decision path) through the token at every probe node and at each
    bracket move. [resume] restores a checkpoint previously decoded
    with {!decode_checkpoint}, skipping the warm start. *)
val optimize :
  ?budget:int ->
  ?time_limit_s:float ->
  ?cancel:(unit -> bool) ->
  ?autosave:Ivc_persist.Autosave.t ->
  ?resume:checkpoint ->
  ?warm:warm ->
  Ivc_grid.Stencil.t ->
  status

(** Exact optimum on an arbitrary weighted graph (binary search between
    the pair bound and total weight). *)
val optimize_graph :
  ?budget:int -> Ivc_graph.Csr.t -> w:int array -> (int * int array) option
