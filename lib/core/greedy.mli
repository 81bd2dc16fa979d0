(** The greedy interval-coloring engine of Section V-A.

    Vertices are colored one at a time; a vertex receives the lowest
    interval of its weight that is disjoint from the intervals of its
    already-colored neighbors. The production implementation is the
    allocation-free [Ivc_kernel.Ff] engine (SoA scratch, insertion
    sort, bitset occupancy fast path, inlined neighbor loops); the
    original tuple-based engine is kept as {!Reference} and serves as
    the oracle for the kernel's differential tests. *)

(** The pre-kernel implementation: boxed (start, finish) tuples and
    [Stencil.iter_neighbors] closures. Slower, obviously correct;
    produces bit-identical colorings to the kernel. *)
module Reference : sig
  type state

  val create : Ivc_grid.Stencil.t -> state
  val color_vertex : state -> int -> int
  val uncolor : state -> int -> unit
  val starts : state -> int array
  val color_in_order : Ivc_grid.Stencil.t -> int array -> int array

  val first_fit : len:int -> Interval.t list -> int
  (** [first_fit ~len intervals] is the smallest start [s >= 0] such
      that [[s, s+len)] is disjoint from every interval in the list;
      [intervals] need not be sorted: the placement rule of every
      engine, in its plainest form. *)
end

type state

(** [create inst] starts a fresh partial coloring of a stencil instance
    with every vertex uncolored. *)
val create : Ivc_grid.Stencil.t -> state

val instance : state -> Ivc_grid.Stencil.t

(** Current start of a vertex, or [Coloring.uncolored]. *)
val start : state -> int -> int

val is_colored : state -> int -> bool

(** [color_vertex st v] greedily colors [v] (first fit against its
    colored neighbors) and returns the chosen start. If [v] was already
    colored it is left untouched and its existing start is returned. *)
val color_vertex : state -> int -> int

(** [uncolor st v] removes the color of [v]. *)
val uncolor : state -> int -> unit

(** [recolor st v] uncolors then greedily recolors [v]; used by the
    post-optimization of Section V-B. Returns the new start. *)
val recolor : state -> int -> int

(** Number of vertices still uncolored. *)
val remaining : state -> int

(** Current [maxcolor] over colored vertices. *)
val maxcolor : state -> int

(** Copy of the starts array (with [-1] for uncolored vertices). *)
val starts : state -> int array

(** [color_in_order inst order] colors all vertices following [order]
    and returns the complete starts array. [order] must be a
    permutation of the vertex ids. *)
val color_in_order : Ivc_grid.Stencil.t -> int array -> int array

(** First-fit on an explicit graph with explicit weights; used by the
    special-case algorithms and tests. *)
val color_in_order_graph :
  Ivc_graph.Csr.t -> w:int array -> int array -> int array
