(** The oracle registry: every correctness oracle the fuzzer, the
    qcheck suites and the corpus replays share.

    {ul
    {- [cert] — every heuristic's coloring passes the independent
       {!Ivc_resilient.Cert} gate with a consistent maxcolor.}
    {- [kernel-diff] — the allocation-free kernel reproduces
       [Greedy.Reference] starts exactly on row-major, Z-order,
       largest-first and a seeded shuffled order.}
    {- [tiled-diff] — the Z-order tiled sweep equals the reference on
       its own tile order, for several tile sizes.}
    {- [par-diff] — the deterministic parallel sweep equals the
       reference on [equivalent_order] for 1 and 2 workers.}
    {- [bound-sandwich] — lower bounds never exceed any heuristic,
       family exact optima (chains, block cliques) sandwich correctly,
       and on small instances the exact solver's bounds bracket the
       heuristics.}
    {- [bound-monotone] — every lower/upper bound is monotone under
       deterministic weight increases.}
    {- [metamorphic] — grid automorphisms (transposition, axis swap,
       reflections) preserve all bounds and permute first-fit
       colorings exactly.}
    {- [portfolio] — the resilient driver's outcome certifies with
       ordered bounds, and it is proven exactly when its lower bound
       meets its maxcolor.}} *)

val cert : Oracle.t
val kernel_diff : Oracle.t
val tiled_diff : Oracle.t
val par_diff : Oracle.t
val bound_sandwich : Oracle.t
val bound_monotone : Oracle.t
val metamorphic : Oracle.t
val portfolio : Oracle.t

(** Kill-resume verification: the CP search (its bracket with the
    in-flight probe) is killed at fault-plan-chosen checkpoint
    boundaries (simulated kill -9 — the raise happens right
    after the snapshot's atomic install), resumed from the on-disk
    snapshot, and must reach the same certified result as an
    uninterrupted run with the same cumulative budget; checkpoints on
    disk must never loosen across kills. *)
val crash_resume : Oracle.t

(** Chaos serving: the instance is solved through a seeded
    fault-injecting proxy ({!Ivc_server.Netfaults}; the plan derives
    from the instance hash) with the retrying verified client. Under
    any plan, every completed Solution must certify at its claimed
    maxcolor, the server must never answer Internal or Cert_failed,
    and after the burst it must drain back to a ready state that still
    serves certified answers directly. Typed transport failures and
    sheds are allowed: chaos may eat requests, never falsify them. *)
val chaos : Oracle.t

(** Out-of-core differential: the instance streams through the
    spill-based tiled solve ({!Ivc_ooc.Ooc}, tile edge pinned to 2 so
    even small instances decompose into many tiles) and must reproduce
    the in-core Z-order tiled sweep bit for bit; the streaming verify
    must certify at the solve's maxcolor; and a second run over the
    same spill directory must resume every tile and recompute
    nothing. *)
val ooc : Oracle.t

(** Repair-vs-resolve metamorphic equivalence: a seeded delta stream
    (derived from the instance hash, so a plain repro replays it) is
    applied to an {!Ivc_incremental.Engine}; after every delta the
    repaired coloring must be bit-identical to a from-scratch
    canonical resolve of the delta'd instance, pass the full
    certificate gate at the engine's claimed maxcolor, and [Repaired]
    provenance must report a front within the repair budget. *)
val incremental : Oracle.t

(** The incremental oracle's check against an explicit delta stream
    (the entry point for repro files carrying [delta] lines). *)
val incremental_check :
  Ivc_grid.Stencil.t -> Ivc_incremental.Delta.t list -> Oracle.result

(** The seeded stream the [incremental] oracle derives for an
    instance. *)
val incremental_deltas :
  Ivc_grid.Stencil.t -> Ivc_incremental.Delta.t list

(** High-availability end to end: a WAL-journaling primary behind a
    seeded netfault proxy with a warm standby replaying its op stream.
    Mid-burst the primary is crash-stopped ({!Ivc_server.Server.kill})
    and the standby promoted over the wire; the failover client must
    finish the mixed solve/delta burst 100% certified, the promoted
    standby must serve the re-certified journaled WAL prefix (asserted
    through a cache hit and a per-op re-solve with matching
    fingerprints), and damaged copies of the journal — truncation
    mid-frame, a single bit flip — must fail closed on replay and be
    quarantined by an idempotent {!Ivc_persist.Scrub} pass. *)
val replication : Oracle.t

(** Every production oracle above, in a stable order. *)
val all : Oracle.t list

(** [kernel-diff!bug]: the kernel-diff oracle with a deliberate
    off-by-one corruption applied to a scratch copy of the kernel's
    output before comparison. Never part of {!all}; it exists to
    demonstrate (in tests, CI dry runs and the PR description) that
    the fuzzer catches and shrinks a seeded kernel bug. *)
val kernel_diff_buggy : Oracle.t

(** Look up by name across {!all} and {!kernel_diff_buggy}. *)
val find : string -> Oracle.t option

val names : string list
