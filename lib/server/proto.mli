(** Wire protocol of the solve daemon: length-prefixed binary frames
    carrying {!Ivc_persist.Codec}-encoded request/response bodies.

    {2 Frame layout}

    {v
    magic   4 bytes  "IVCR"
    length  4 bytes  little-endian unsigned body length
    body    [length] bytes
    v}

    Every body starts with the protocol {!version} (one Codec int)
    followed by a message tag, so an old client talking to a new
    server (or vice versa) gets a typed [Bad_version] error, never a
    misparse. Frame-level damage maps to {!frame_error}; a reader
    that can prove the stream is still in sync (an intact header
    whose body is merely oversized) skips the body and keeps the
    connection, while desynchronizing damage (bad magic, truncation)
    is fatal to the connection by construction.

    {2 Shed and error codes}

    Load shedding is a first-class, typed response — a saturated
    server answers [Shed] with a {!shed_code} (queue full, instance
    over the admission limit, deadline already spent in the queue)
    rather than stalling or dropping the connection. Malformed input
    and server-side failures map to {!error_code}.

    {2 Degraded service}

    Under brownout the server still answers with a certified
    [Solution], but marks it with a {!degrade} value so the client
    knows the exact stage ran with a shrunk budget (or not at all)
    and the bound may be looser than a healthy server would return. *)

val version : int
(** Protocol version, embedded in every body. Version 2 added
    [Health]/[Health_reply], the solution [degraded] marker, and the
    [Conn_timeout] error code. Version 3 added the [Delta] request
    (incremental repair against cached repair state, keyed by chain
    fingerprint) and the [Unknown_fingerprint] error code. Version 4
    added the replication stream ([Replicate] → [Op]/[Repl_heartbeat]
    frames), [Promote]/[Promoted], the [Not_primary] error code, the
    {!op} journal codec, and the health record's role / replication /
    scrub fields. Version 5 added the [Patch] reply to [Delta]. *)

val op_version : int
(** Version of the {!op} journal codec, embedded in every op payload
    and independent of {!version}: WAL records outlive connections, so
    a wire bump leaves it alone. Still 4. *)

val magic : string
(** 4-byte frame magic, ["IVCR"]. *)

val default_max_frame : int
(** Default frame-body cap, 16 MiB. *)

(** {1 Messages} *)

type solve_options = {
  deadline_s : float option;  (** [None] = server default *)
  priority : int;  (** lower runs first; default 10 *)
  budget : int option;  (** exact-stage node budget override *)
  improve : bool;  (** enable the iterated-greedy stage *)
  use_cache : bool;  (** serve / store the fingerprint cache *)
}

val default_solve_options : solve_options

type request =
  | Ping
  | Solve of { inst : Ivc_grid.Stencil.t; opts : solve_options }
  | Stats
  | Shutdown  (** graceful daemon stop (used by CI and tests) *)
  | Health  (** cheap liveness/readiness probe, answered inline *)
  | Delta of {
      fp : int64;
          (** the chain fingerprint of the server-held repair state
              this delta targets: the instance's
              {!Ivc_persist.Snapshot.fingerprint} right after a solve,
              then {!Ivc_incremental.Delta.chain_fp} of the previous
              key after every applied delta *)
      delta : Ivc_incremental.Delta.t;
      budget : int option;  (** repair-front override for this apply *)
    }
      (** incrementally repair the cached solution instead of
          re-solving; answered inline on the connection thread
          (microseconds for a local repair, never queued) *)
  | Replicate of { from_seq : int }
      (** switch this connection into a replication stream: the server
          ships every journaled operation from sequence [from_seq] on
          as [Op] frames, interleaved with [Repl_heartbeat] while the
          log is quiet. The connection never returns to
          request/response mode. *)
  | Promote
      (** make a standby serve: flips the role to primary, detaches
          its upstream replication, answers [Promoted]. Idempotent on
          a server that is already primary. *)

type shed_code =
  | Queue_full  (** admission queue at capacity *)
  | Too_large  (** instance exceeds the server's vertex cap *)
  | Expired_in_queue
      (** the request's deadline passed before a worker picked it up *)

type error_code =
  | Bad_frame  (** frame-level damage (oversized body, bad magic) *)
  | Bad_version  (** body's protocol version is not {!version} *)
  | Bad_request  (** undecodable or invalid body *)
  | Cert_failed
      (** the certificate gate rejected every candidate — the server
          fails closed rather than returning an uncertified coloring *)
  | Internal  (** unexpected server-side exception *)
  | Conn_timeout
      (** the connection blew a read/write deadline; best-effort
          notice before the server closes it *)
  | Unknown_fingerprint
      (** a [Delta] targeted repair state the server does not hold
          (never solved here, evicted, or the chain diverged); the
          client falls back to a full [Solve] *)
  | Not_primary
      (** a standby refused a [Solve]/[Delta]: its replayed state may
          trail the primary, so it serves only after an explicit
          [Promote] or its primary lease expires (split-brain
          safety); the client fails over to the next endpoint *)

type degrade =
  | Shrunk_budget  (** exact stage capped at the brownout budget *)
  | Heuristic_only  (** exact and iterated stages skipped entirely *)

(** A [Delta] reply as the cells that changed: what a connection that
    already holds the coloring at [base_fp] needs to rebuild the full
    reply. See {!apply_patch}. *)
type patch = {
  base_fp : int64;  (** chain key of the coloring this patch edits *)
  fingerprint : int64;  (** the advanced chain key, as in [solution] *)
  n : int;  (** length of the resulting starts (grows on [Extend]) *)
  cells : int array;  (** strictly ascending ids of the changed cells *)
  values : int array;  (** their new starts, index for index *)
  digest : int;
      (** {!Ivc_incremental.Engine.digest_of} the resulting starts *)
  maxcolor : int;
  provenance : string;
  elapsed_s : float;
}

type solution = {
  starts : int array;
  maxcolor : int;
  lower_bound : int;
  provenance : string;  (** {!Ivc_resilient.Driver.provenance_to_string} *)
  proven_optimal : bool;
  elapsed_s : float;  (** solve wall-clock on the server *)
  cache_hit : bool;
  resumed : bool;  (** continued from a crash snapshot *)
  degraded : degrade option;  (** served under brownout *)
  fingerprint : int64;  (** splitmix64 instance fingerprint *)
}

type role =
  | Primary  (** journals and ships; serves everything *)
  | Standby
      (** replays a primary's log; serves solves/deltas only after
          [Promote] or primary lease expiry *)

type health = {
  ready : bool;  (** accepting and able to admit work *)
  draining : bool;  (** stop in progress *)
  queue_depth : int;
  running : int;
  connections : int;
  brownout : degrade option;  (** current admission degradation level *)
  uptime_s : float;
  role : role;
  applied_seq : int;
      (** ops journaled (primary) / replayed and accepted (standby) *)
  replication_lag : int;
      (** standby: primary's last-seen head minus [applied_seq];
          always 0 on a primary *)
  last_scrub_s : float;
      (** seconds since the last completed scrub pass; negative when
          none has run *)
  quarantined : int;  (** files quarantined by scrub since boot *)
}

type response =
  | Pong of { version : int }
  | Solution of solution
  | Shed of { code : shed_code; depth : int; message : string }
  | Error of { code : error_code; message : string }
  | Stats_reply of { json : string }
  | Shutting_down
  | Health_reply of health
  | Op of { seq : int; head : int; payload : string }
      (** one journaled operation on a replication stream: [payload]
          is an {!encode_op} body, [head] the shipper's current log
          head (the standby's lag gauge) *)
  | Repl_heartbeat of { head : int }
      (** replication keep-alive while the log is quiet; carries the
          head so lag stays honest and renews the standby's lease *)
  | Promoted of { applied_seq : int }
  | Patch of patch
      (** a [Delta] reply sent instead of [Solution] once the
          connection holds the coloring at [base_fp] (its previous
          [Delta] reply) and the changed cells encode smaller than the
          full starts array; {!Client.request} turns it back into the
          [Solution] the server would otherwise have sent *)

val shed_code_to_string : shed_code -> string
val error_code_to_string : error_code -> string
val degrade_to_string : degrade -> string
val role_to_string : role -> string

(** {1 Body codecs} *)

val encode_request : request -> string
val encode_response : response -> string

val decode_request : string -> (request, error_code * string) result
(** Fails closed: version mismatch is [Bad_version], everything else
    undecodable (truncated body, unknown tag, invalid instance,
    trailing bytes) is [Bad_request]. *)

val decode_response : string -> (response, string) result

(** {1 Replicated operations}

    The journal payload: one completed operation the primary
    persisted to its WAL and ships to standbys. Opaque to
    {!Ivc_persist.Wal} (which frames and checksums it); a replayer
    decodes it here and {e re-certifies} the coloring before
    accepting it — the op stream is an optimization, never an
    authority. *)

type op =
  | Op_solved of {
      fp : int64;  (** instance fingerprint, the cache key *)
      inst : Ivc_grid.Stencil.t;
      starts : int array;
      maxcolor : int;
      lower_bound : int;
      provenance : string;
      proven_optimal : bool;
    }  (** a completed, certified, cached solve *)
  | Op_delta of { fp : int64; delta : Ivc_incremental.Delta.t }
      (** a delta applied to the repair chain keyed [fp]; the replayer
          advances its own chain through its own engine (which
          re-certifies internally) *)

val describe_op : op -> string
val encode_op : op -> string

val decode_op : string -> (op, string) result
(** Fails closed like the other codecs: an {!op_version} mismatch,
    unknown tags, truncation and trailing bytes are all [Error]. *)

(** {1 Delta replies and patches} *)

val delta_solution :
  starts:int array ->
  maxcolor:int ->
  provenance:string ->
  elapsed_s:float ->
  fingerprint:int64 ->
  solution
(** The [Solution] answering a [Delta]: no lower bound, not proven
    optimal, not a cache hit, not resumed, not degraded. The server
    builds full replies with it and the client rebuilds patched ones,
    so both carry the same fields. *)

type base
(** What a connection holds to apply the next patch against: a chain
    key, a private starts array at that key, and its digest. *)

val base_of_solution : solution -> base
(** The base a full [Delta] reply leaves: a private copy of its starts
    at its fingerprint. O(n). *)

val apply_patch : base -> patch -> (base, string) result
(** The pure core of patch application: no I/O and no connection
    state. Rejects a patch whose [base_fp] is not the base's key, whose
    [n] would shrink the coloring or grow it by more cells than the
    patch lists (a grown cell always leaves its initial [-1]), whose
    cells are out of [0, n) or not strictly ascending, or whose
    resulting digest differs from [digest] — every check runs before
    the first write, so on [Error]
    the base is untouched. On [Ok] the base is consumed: its array is
    updated in place unless the patch grew it. O(changed cells), plus
    O(new cells) on growth. *)

val solution_of_patch : base -> patch -> solution
(** The full reply a successfully applied patch stands for, given the
    base {!apply_patch} returned; its starts are a fresh copy. *)

(** {1 Frame transport} *)

type frame_error =
  | Eof  (** clean end of stream between frames *)
  | Bad_magic
  | Oversized of int
      (** header intact, body over the cap; the body was consumed, so
          the stream is still in sync and the connection survives *)
  | Truncated  (** stream ended inside a header or body *)
  | Timed_out
      (** an idle or io deadline expired mid-read; the stream may be
          desynchronized, so the connection has to go *)

exception Write_timeout
(** Raised by {!write_frame} when [io_timeout_s] expires with the
    peer's receive window still full (a stalled or dead reader). *)

val frame_error_to_string : frame_error -> string

val write_frame : ?io_timeout_s:float -> Unix.file_descr -> string -> unit
(** Write one frame (header + body), handling short writes. With
    [io_timeout_s], the whole frame must drain within that window
    measured on the monotonic clock or {!Write_timeout} is raised. *)

val read_frame :
  ?max_frame:int ->
  ?resync:bool ->
  ?idle_timeout_s:float ->
  ?io_timeout_s:float ->
  Unix.file_descr ->
  (string, frame_error) result
(** Read one frame body. [idle_timeout_s] bounds the wait for the
    first byte of the frame; [io_timeout_s] bounds the whole
    header+body read once bytes start flowing (slow-loris defense —
    trickling one byte per window does not reset it). Either expiry
    is [Error Timed_out]. An over-[max_frame] body is consumed and
    reported [Oversized] so the stream stays in sync; with
    [~resync:false] the [Oversized] verdict returns immediately
    instead — the right choice for a caller that abandons the
    connection on any error, since a corrupted length field can
    promise bytes that will never arrive. Never raises on malformed
    input; IO errors ([Unix.Unix_error]) do escape — the connection
    owner maps those to a close. *)
