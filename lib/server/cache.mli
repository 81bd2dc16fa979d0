(** Bounded solution cache keyed by the splitmix64 instance
    fingerprint from {!Ivc_persist.Snapshot.fingerprint}.

    A hit must be exact, not probably-exact: the cache stores the full
    instance (dims + weights) alongside the certified answer and
    verifies structural equality on lookup, so a fingerprint collision
    degrades to a miss (counted via [server.cache_collisions]) instead
    of serving another tenant's coloring. Eviction is FIFO — the
    serving workload this fronts is dominated by short bursts of
    repeats, where insertion order and recency order coincide.

    All operations are thread-safe (one lock; the critical sections
    are pointer work, never a solve). *)

type entry = {
  starts : int array;
  maxcolor : int;
  lower_bound : int;
  provenance : string;
  proven_optimal : bool;
}

type t

val create : capacity:int -> t
(** [capacity = 0] disables caching (every lookup misses, every store
    is dropped). *)

val find : t -> fp:int64 -> inst:Ivc_grid.Stencil.t -> entry option
(** Counted via [server.cache_hits] / [server.cache_misses]. *)

val store : t -> fp:int64 -> inst:Ivc_grid.Stencil.t -> entry -> unit
(** Idempotent on an existing fingerprint; evicts the oldest entry
    when full. *)

val instance : t -> int64 -> Ivc_grid.Stencil.t option
(** The instance stored under a fingerprint, if any: what the repair
    table seeds an engine from. Not counted as a hit or a miss. *)

val size : t -> int
val capacity : t -> int

val evicted : t -> int
(** Entries this table has evicted since creation — the per-server
    number the [Stats] reply serves (the [server.cache_evictions]
    counter is process-wide and cannot tell two servers apart). *)
