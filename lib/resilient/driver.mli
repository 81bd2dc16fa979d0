(** Resilient solver portfolio: always returns a certified coloring
    within (approximately) a caller-set deadline, degrading gracefully
    from exact to heuristic quality.

    The chain, cheapest-first so an incumbent exists from the first
    milliseconds: greedy first-fit (the guaranteed fallback), then the
    full heuristic portfolio (GZO, GLF, GKF, SGK, BD, BDP), then
    iterated-greedy improvement, then the exact CP search, warm-started
    from the certified incumbent, on whatever time remains. Cancellation is
    cooperative at every stage boundary and inside every solver loop;
    whatever stage the deadline interrupts, the best previously
    certified incumbent is returned, with provenance recording which
    stage produced it and the tightest lower bound proved before
    cancellation.

    Every candidate passes the {!Cert} gate before it can become the
    incumbent, and the driver fails closed: a coloring that does not
    certify is discarded (counted via [resilient.cert_reject]), and if
    no candidate at all certifies the driver returns the typed error
    rather than an unchecked coloring. *)

type provenance =
  | Exact  (** proven optimal within the deadline *)
  | Heuristic of string
      (** name of the heuristic (or CP incumbent) that produced the
          returned coloring *)
  | Fallback  (** only the greedy first-fit fallback completed *)
  | Resumed of provenance
      (** the solve continued from a crash snapshot; the inner
          provenance records which stage the returned coloring came
          from *)

type outcome = {
  starts : int array;
  maxcolor : int;
  lower_bound : int;
      (** tightest bound proved before cancellation; equals [maxcolor]
          iff [proven_optimal] *)
  provenance : provenance;
  proven_optimal : bool;
      (** the exact stage closed the gap, or [maxcolor] meets the
          certified lower bound; [provenance] still names the stage
          that produced the coloring *)
  elapsed_s : float;
      (** wall-clock seconds this solve spent, on the monotonic
          clock *)
  deadline_remaining_s : float option;
      (** seconds left on the deadline token when the solve returned
          ([None] when no deadline was set); callers budgeting a batch
          read this instead of re-deriving it from [elapsed_s] *)
  resumed : bool;  (** the solve was seeded from a crash snapshot *)
}

val provenance_to_string : provenance -> string

val provenance_of_string : string -> provenance option
(** Inverse of {!provenance_to_string}; [None] on unrecognized input
    (snapshot decoding fails closed through this). *)

(** {1 Crash-safe checkpointing}

    The driver writes a "driver"-kind snapshot (the certified incumbent
    plus the tightest lower bound) at stage boundaries, and hands the
    same autosave token to its stages, which overwrite the shared file
    with finer-grained checkpoints while they run. {!decode_resume}
    dispatches whatever kind the killed run wrote last back to the
    right point in the chain. *)

type seed = {
  fp : int64;
  lb : int;
  starts : int array;
  prov : provenance;
  proven : bool;
}

type resume =
  | Seed of seed  (** re-seed the incumbent, redo improve + exact *)
  | Improve of Ivc.Iterated.checkpoint  (** resume mid-improvement *)
  | Exact_stage of Ivc_exact.Cp.checkpoint
      (** resume inside the CP search *)

val driver_kind : string
(** Snapshot kind tag, ["driver"]. *)

val encode_seed : seed -> string

val decode_resume :
  inst:Ivc_grid.Stencil.t ->
  Ivc_persist.Snapshot.t ->
  (resume, Ivc_persist.Snapshot.error) result
(** Decode any snapshot the portfolio (or its stages) may have written:
    ["driver"], ["iterated"] or ["cp-opt"]. Fails closed with a typed
    error (any other kind, an ["order-bb"] snapshot of an older build
    included, is [Wrong_kind]); callers fall back to a fresh solve and
    report the reason. *)

(** {1 Out-of-core solves}

    Larger-than-RAM instances bypass the portfolio (every stage needs
    the full starts array in memory) and stream through
    {!Ivc_ooc.Ooc} instead, double-gated: the streaming verifier
    re-checks every adjacent interval pair under the same memory bound
    as the solve, and instances small enough to materialize
    additionally pass the ordinary in-core {!Cert} gate. *)

type ooc_outcome = {
  ooc_maxcolor : int;  (** certified color count *)
  ooc_stats : Ivc_ooc.Ooc.stats;
  ooc_cert_in_core : bool;
      (** the coloring also passed the in-core {!Cert} gate (small
          instances only) *)
}

type ooc_error =
  | Ooc_failed of Ivc_ooc.Ooc.error
  | Ooc_cert of Cert.error

val ooc_error_to_string : ooc_error -> string

(** [solve_ooc ~dir src] streams [src] through the out-of-core engine,
    spilling to [dir] (resuming automatically from any valid spills
    there), then certifies the result. Peak memory is bounded by
    [mem_budget] plus the window, independent of the instance size. *)
val solve_ooc :
  ?tile:int ->
  ?mem_budget:int ->
  dir:string ->
  Ivc_ooc.Source.t ->
  (ooc_outcome, ooc_error) result

(** [solve ?deadline_s ?deadline ?cancel ?budget ?improve ?autosave
    ?resume inst]. [deadline_s] bounds the wall-clock time (monotonic);
    [deadline] instead hands the driver a caller-owned {!Deadline}
    token — the reentrant form services use, where one token minted at
    admission time covers queueing {e and} solving (when given, it
    takes precedence over [deadline_s]); [cancel] is an additional
    caller-side cancellation poll merged with the deadline; [budget]
    is the exact stage's node budget (default 200_000); [improve]
    enables the iterated-greedy stage (default true); [exact]
    enables the exact stage (default true — a browned-out server
    sets it false to serve the certified heuristic incumbent
    directly).

    [autosave] threads one checkpoint token through every stage;
    [resume] continues from a snapshot decoded with {!decode_resume}.
    A resumed solve re-runs only the guaranteed fallback (cheap, and
    the caller is owed a valid coloring even on a corrupt snapshot),
    seeds the incumbent and lower bound from the snapshot through the
    certificate gate, and rejoins the chain at the stage the snapshot
    belongs to; its provenance is wrapped in {!Resumed}. *)
val solve :
  ?deadline_s:float ->
  ?deadline:Deadline.t ->
  ?cancel:(unit -> bool) ->
  ?budget:int ->
  ?improve:bool ->
  ?exact:bool ->
  ?autosave:Ivc_persist.Autosave.t ->
  ?resume:resume ->
  Ivc_grid.Stencil.t ->
  (outcome, Cert.error) result
