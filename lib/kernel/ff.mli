(** Allocation-free first-fit kernel: the production engine behind every
    greedy heuristic.

    Per vertex it gathers the colored neighbors' intervals into flat
    SoA scratch arrays (no tuples), then places the vertex by either a
    word-scanned bitset occupancy window (small-color fast path, no
    sort) or an in-place insertion sort + linear scan (stencil degrees
    are at most 8 / 26, where insertion sort wins). Neighbor loops are
    manually inlined per dimension; interior cells skip bounds checks.

    The colorings produced are bit-identical to
    {!Ivc.Greedy.Reference}: first fit against sorted neighbor
    intervals, zero-weight vertices placed at 0. *)

(** Reusable per-worker scratch: neighbor SoA buffers plus the bitset
    window, held in [Bigarray] so the inner loops run on unboxed
    machine ints with unsafe accesses. One scratch must not be shared
    between domains. *)
type scratch

(** [make_scratch ?bitset_min_cnt inst] builds scratch for [inst].
    [bitset_min_cnt] overrides the gathered-interval count above which
    the bitset occupancy path is taken instead of sort+scan; the
    default is per stencil family (see {!default_bitset_min_cnt}). *)
val make_scratch : ?bitset_min_cnt:int -> Ivc_grid.Stencil.t -> scratch

(** The instance's weight array (shared, not copied). *)
val weights : scratch -> int array

(** The measured per-family default crossover from sort+scan to the
    bitset occupancy path (2D and 3D differ: degree 8 vs 26). *)
val default_bitset_min_cnt : Ivc_grid.Stencil.t -> int

(** The crossover this scratch was built with. *)
val bitset_min_cnt : scratch -> int

(** Flush the batched fast-path counters ([kernel.bitset_fits],
    [kernel.sorted_scans]) to the observability registry. The per-fit
    counts accumulate in scratch so the hot loop never touches an
    atomic; {!color_range} flushes automatically, engines driving
    {!first_fit_for} directly should flush once per sweep. *)
val flush_stats : scratch -> unit

(** [first_fit_for sc ~starts v] is the lowest start for [v]'s weight
    that avoids every colored ([>= 0]) positive-weight neighbor of [v]
    in [starts]. Pure with respect to [starts]; only [sc] is mutated.
    This is the re-fit primitive used by the iterated-greedy passes,
    the parallel sweep's seam cells and the out-of-core window. *)
val first_fit_for : scratch -> starts:int array -> int -> int

(** [first_fit_below sc ~starts v] is {!first_fit_for} restricted to
    the neighbors of [v] with a {e smaller flat id}. In the canonical
    row-major sweep a vertex's start depends on exactly these
    neighbors, so this is the recomputation primitive behind
    incremental repair ({!Ivc_incremental.Engine}): repairing cell [v]
    against [starts] reproduces what a from-scratch identity-order
    sweep would assign it, given the smaller-id prefix is already
    canonical. Pure with respect to [starts]. *)
val first_fit_below : scratch -> starts:int array -> int -> int

(** {1 Stateful engine} *)

type t

(** Fresh engine with every vertex uncolored. *)
val create : ?bitset_min_cnt:int -> Ivc_grid.Stencil.t -> t

val instance : t -> Ivc_grid.Stencil.t

(** Current start of a vertex, or [-1] when uncolored. *)
val start : t -> int -> int

val is_colored : t -> int -> bool
val remaining : t -> int

(** Copy of the starts array. *)
val starts : t -> int array

(** The live starts array (no copy). Callers must treat it as
    read-only; it aliases the engine state. *)
val starts_view : t -> int array

val maxcolor : t -> int

(** Greedily color one vertex (idempotent on colored vertices). *)
val color_vertex : t -> int -> int

val uncolor : t -> int -> unit
val recolor : t -> int -> int

(** [color_range t order ~lo ~hi] sweeps [order.(lo .. hi-1)], coloring
    every not-yet-colored vertex first-fit. The dimension dispatch and
    observability flush happen once per call, not per vertex. *)
val color_range : t -> int array -> lo:int -> hi:int -> unit

(** One-shot full sweep; [order] must be a permutation. *)
val color_in_order :
  ?bitset_min_cnt:int -> Ivc_grid.Stencil.t -> int array -> int array
