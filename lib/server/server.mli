(** Multi-tenant solve daemon: concurrent requests over a Unix/TCP
    socket, multiplexed across a shared {!Taskpar.Service} domain
    pool, every answer passed through the {!Ivc_resilient.Cert} gate.

    The request path is: accept (dedicated thread per connection, the
    solves are the work) → decode ({!Proto}) → admission control
    (vertex cap, bounded queue; saturation answers a typed [Shed]) →
    fingerprint-cache lookup ({!Cache}) → on a miss, a solve job on
    the worker pool driving {!Ivc_resilient.Driver.solve} with a
    per-request {!Ivc_resilient.Deadline} token minted at admission
    (queue wait counts against the deadline, and an expired-in-queue
    request is shed, not solved) → response.

    [Delta] requests bypass the queue entirely: they repair the
    incremental engine seeded by a previous healthy solve of the same
    instance (keyed by chain fingerprint, re-keyed on every applied
    delta), answering in microseconds when the repair front stays
    local. Unknown keys answer a typed [Unknown_fingerprint] and the
    client falls back to a full [Solve].

    With [autosave_dir] set, in-flight solves checkpoint to
    [<dir>/<fingerprint>.snap] and a restarted server resumes a
    killed solve from its snapshot on the next request for the same
    instance (fail-closed: a bad snapshot costs the progress, never
    correctness).

    Live metrics are the ordinary [Ivc_obs] counters/gauges
    ([server.*], [service.*], the solver counters), exported through
    the [Stats] request; {!start} enables the observability layer. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_to_string : addr -> string

type config = {
  addr : addr;
  workers : int;  (** solve worker domains *)
  queue_capacity : int;  (** admission backlog, see {!Taskpar.Service} *)
  cache_capacity : int;  (** fingerprint-cache entries; 0 disables *)
  max_vertices : int;  (** admission cap on instance size *)
  max_frame : int;  (** frame-body byte cap *)
  default_deadline_s : float;  (** for requests that set none *)
  deadline_cap_s : float;  (** clamp on client-requested deadlines *)
  autosave_dir : string option;
  autosave_every_s : float;
  idle_timeout_s : float;
      (** close a connection idle between frames this long; 0 disables *)
  io_timeout_s : float;
      (** per-frame read/write deadline once bytes flow (slow-loris
          defense); 0 disables *)
  brownout_low : float;
      (** occupancy at which admitted solves get a shrunk exact budget *)
  brownout_high : float;
      (** occupancy at which admitted solves run heuristics only *)
  brownout_budget : int;  (** exact-node cap under [Shrunk_budget] *)
  repair_capacity : int;
      (** incremental repair-state entries served to [Delta] requests;
          0 disables (every delta answers [Unknown_fingerprint]) *)
  standby : bool;
      (** boot as a warm standby: solves/deltas answer [Not_primary]
          until a [Promote] request or primary lease expiry; a
          {!Replica} loop feeds the state (see {!apply_replicated}) *)
  wal_dir : string option;
      (** write-ahead op log directory: completed solves and applied
          deltas are journaled ({!Ivc_persist.Wal}), replayed on boot
          (re-certified), and shipped to replicas over [Replicate]
          streams. [None] disables journaling and replication *)
  wal_segment_bytes : int;  (** WAL segment size before rotation *)
  wal_fsync : bool;  (** fsync every WAL append *)
  lease_s : float;
      (** how long a standby honors its primary's lease after the last
          op/heartbeat before serving on its own *)
  scrub_every_s : float;
      (** background scrub period over WAL/autosave/[scrub_dirs]
          directories; 0 disables *)
  scrub_dirs : string list;  (** extra directories for the scrubber *)
}

val default_config : addr -> config
(** 2 workers, queue 32, cache 256, 4M vertex cap, 16 MiB frames, 5 s
    default / 60 s max deadline, no autosave; 300 s idle / 30 s io
    timeouts, brownout watermarks 0.75 / 0.95 with a 500-node budget;
    16 repair-state entries. Primary role, no WAL, 1 MiB fsynced
    segments, 10 s lease, scrubbing off. *)

val brownout_of : config -> occupancy:float -> Proto.degrade option
(** The pure watermark rule: occupancy ≥ [brownout_high] is
    [Heuristic_only], ≥ [brownout_low] is [Shrunk_budget], else
    healthy. Occupancy is (queued + running) / (queue capacity +
    workers) — the hard [Queue_full] shed fires at 1.0, so brownout
    degrades strictly before the server starts refusing. *)

type t

val start : config -> t
(** Bind, listen, spawn the acceptor. Raises [Unix.Unix_error] if the
    address is unusable. An existing socket file at a [Unix_sock] path
    is replaced. *)

val port : t -> int
(** The bound TCP port (useful with [Tcp (host, 0)]); the Unix-domain
    case returns 0. *)

val health : t -> Proto.health
(** The live readiness snapshot the [Health] request serves. *)

val occupancy : t -> float
(** Current fraction of admission slots in use. *)

val bind_listen : addr -> Unix.file_descr * int
(** Bind + listen on an address, returning the fd and the bound TCP
    port (0 for Unix sockets). Shared with {!Netfaults}; an existing
    socket file at a [Unix_sock] path is replaced. *)

val wait : t -> unit
(** Block until a [Shutdown] request (or {!stop} from another thread)
    is seen. The daemon's main thread parks here. *)

val stop : t -> unit
(** Graceful stop: stop accepting, drain queued solves (their
    responses are still delivered), close connections, join every
    thread and worker domain. Idempotent. *)

val kill : t -> unit
(** Crash-style stop for tests and oracles: connections are torn down
    both ways {e before} the drain, so in-flight requests observe a
    reset instead of an answer — the closest an in-process server
    gets to kill -9. Threads and domains are still reclaimed (the
    process goes on to run assertions). Idempotent, shared flag with
    {!stop}. *)

(** {1 Replication}

    The hooks {!Replica} drives on a standby, plus role plumbing.
    Everything here is safe from any thread. *)

val role : t -> Proto.role

val promote : t -> int
(** Make this server primary (idempotent); detaches the standby's
    upstream loop via the {!set_on_promote} hook. Returns the feed
    head — the op count the promoted state was replayed from. *)

val repl_head : t -> int
(** Ops in the feed/journal; the next sequence number. *)

val repl_tail : t -> int
(** The oldest sequence number the in-memory feed still holds. With a
    WAL the feed keeps at most {!tail_bytes} of op payload and a
    replication stream reads older ops back from the WAL; without one
    it keeps every op and this stays 0. *)

val tail_bytes : int
(** The feed's payload bound when a WAL is configured: 4 MiB. *)

val repl_applied : t -> int
(** Standby: ops accepted from upstream (= its replication cursor).
    Primary: equals {!repl_head}. *)

val apply_replicated : t -> seq:int -> string -> (unit, string) result
(** Apply one shipped op payload at sequence [seq] (must equal
    {!repl_applied} — strict order, no holes). The op is decoded,
    {e re-certified} (a coloring that fails the gate is rejected and
    only journaled for cursor fidelity), stored into cache/repair
    state, and appended to this server's own WAL and feed. *)

val note_primary_contact : t -> head:int -> unit
(** Record a sign of life (op or heartbeat) from the upstream
    primary: renews the standby's lease and updates its lag. *)

val set_on_promote : t -> (unit -> unit) -> unit
(** Hook run once when a standby is promoted — {!Replica} uses it to
    stop pulling from the now-dethroned primary. *)
