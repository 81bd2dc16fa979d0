(** Incremental recoloring by canonical repair.

    The engine maintains one invariant: its coloring always equals the
    {e canonical} coloring of its current instance — first fit in
    row-major (identity) order, the coloring
    [Ff.color_in_order inst (row_major_order inst)] would produce from
    scratch. Canonical order makes repair local: a vertex's canonical
    start depends only on its neighbors with smaller flat id
    ({!Ivc_kernel.Ff.first_fit_below}), so a weight change at [v] can
    only invalidate cells reachable from [v] through increasing-id
    stencil edges. Repair pops an ascending worklist: recompute the
    fit of the smallest dirty cell, and if its interval changed, mark
    its larger-id neighbors dirty. Each cell is finalized at most once
    per delta (pops ascend, pushes only go upward), so the repair
    front is exactly the set of recomputed cells.

    When the front exceeds the budget the engine abandons repair and
    falls back to a full canonical sweep ([Resolved]) — the result is
    the same coloring, just paid for in O(n).

    Every apply ends at a certificate gate. A [Repaired] apply is
    gated by {!Ivc_resilient.Cert.check_cells} over the cells whose
    intervals changed (sound because the previous state was fully
    certified), a [Resolved] apply by the full
    {!Ivc_resilient.Cert.check}; either failure is returned as a typed
    error and the engine must be discarded. The maxcolor is tracked
    incrementally with a finish-value histogram so a microsecond
    repair never pays an O(n) rescan. *)

type provenance =
  | Repaired of { front_cells : int; waves : int }
      (** [front_cells] cells were recomputed, propagating at most
          [waves] rings outward from the delta's seed cells (0 when
          nothing changed, 1 when only seeds changed) *)
  | Resolved  (** repair front exceeded the budget; full sweep *)

val provenance_to_string : provenance -> string

type outcome = {
  provenance : provenance;
  maxcolor : int;  (** certified maxcolor after the delta *)
  changed_cells : int;  (** cells whose interval actually changed *)
}

type error =
  | Bad_delta of string  (** delta failed validation; engine unchanged *)
  | Cert_failed of Ivc_resilient.Cert.error
      (** the repaired coloring failed the certificate gate; the
          engine state is untrusted and must be discarded *)

val error_to_string : error -> string

type t

(** Default repair budget: [max 64 (n / 8)] recomputed cells. Small
    enough that a fallback sweep costs at most a few times the repair
    it replaces, large enough that realistic drift never trips it. *)
val default_budget : Ivc_grid.Stencil.t -> int

(** [create ?budget inst] colors [inst] canonically from scratch and
    gates the result with the full certificate
    (raising {!Ivc_resilient.Cert.Rejected} on a kernel bug). The
    engine owns a private copy of the instance; the caller's [inst] is
    never mutated by later deltas. *)
val create : ?budget:int -> Ivc_grid.Stencil.t -> t

(** The engine's current instance (reflects applied deltas). Treat as
    read-only: the engine mutates its weights in place on apply. *)
val instance : t -> Ivc_grid.Stencil.t

val n_vertices : t -> int
val budget : t -> int

(** Copy of the current starts. *)
val starts : t -> int array

(** The live starts array (no copy); read-only, aliases engine state,
    and is replaced wholesale by [Extend] deltas — re-fetch after
    every apply. *)
val starts_view : t -> int array

val maxcolor : t -> int

(** [cell_digest v s] is cell [v]'s term of a starts digest: a bijective
    mix of the cell id and its start, so changing one start always
    changes the digest. *)
val cell_digest : int -> int -> int

(** [digest_of starts] is the wrapping sum of [cell_digest v starts.(v)]
    over every cell. Being a sum, it follows a change of one start in
    O(1): subtract the old term, add the new one. *)
val digest_of : int array -> int

(** [digest_of (starts_view t)], maintained in O(changed cells) per
    apply (O(new cells) for an [Extend]). *)
val digest : t -> int

(** The cells the last successful {!apply} may have moved: ascending,
    each at most once, covering every cell whose start differs from
    before the delta — the local repair's front changes and, after a
    fallback, every cell the full sweep moved. Writing their current
    starts into the pre-apply coloring (grown with [-1] for the cells
    an [Extend] added) reproduces {!starts_view}. A superset: a cell
    whose weight changed but whose start did not may be listed. *)
val changed : t -> int array

(** [apply ?budget t d] applies one delta, repairing outward from its
    seed cells; [budget] overrides the engine budget for this call
    only. An empty batch is a no-op and reports
    [Repaired {front_cells = 0; waves = 0}]; any delta that actually
    dirties a cell under budget 0 falls back to [Resolved]. On
    [Bad_delta] the engine is unchanged; on [Cert_failed] it must be
    discarded. *)
val apply : ?budget:int -> t -> Delta.t -> (outcome, error) result

(** Re-run the full independent certificate gate on the current state
    (the oracle's belt to the regional gate's suspenders). *)
val certify : t -> (int, Ivc_resilient.Cert.error) result

(** [resolve inst] is the canonical coloring computed from scratch —
    the reference side of the repair-vs-resolve equivalence: after any
    successful [apply], [starts t = resolve (instance t)]
    bit-for-bit. *)
val resolve : Ivc_grid.Stencil.t -> int array
