(** Fault-tolerant blocking client for the solve daemon.

    One connection carries one request at a time (the server answers
    in order); a caller that wants concurrent solves opens one client
    per in-flight request — see the CLI's [client burst].

    Every failure is a typed {!error}: resolver and connect problems,
    syscall errors mid-request (including a write into a peer-closed
    socket), deadline expiry, undecodable responses, and — through
    {!verify_solution} — responses that decode but lie. No call
    raises, and no call path leaks the file descriptor. *)

type error =
  | Connect of string  (** resolve or connect failure *)
  | Io of string  (** syscall or framing failure mid-request *)
  | Timeout  (** a connect / read / write deadline expired *)
  | Bad_response of string  (** frame decoded, body did not *)
  | Corrupt of string
      (** the response decoded but failed end-to-end verification:
          wrong fingerprint, failed certificate, or a maxcolor claim
          the coloring does not support *)

val error_to_string : error -> string

type t

val connect : ?timeout_s:float -> Server.addr -> (t, error) result
(** With [timeout_s] the TCP/Unix connect races a deadline
    (non-blocking connect + select); without it the OS default
    applies. Never raises; the socket is closed on every failure
    path. *)

val close : t -> unit

val addr_of_string : string -> (Server.addr, string) result
(** Parse an endpoint: ["unix:PATH"] or a bare path is a Unix-domain
    socket, ["HOST:PORT"] is TCP. The syntax of [--replica-of] and
    repeated [--endpoint] CLI flags. *)

val request :
  ?timeout_s:float -> t -> Proto.request -> (Proto.response, error) result
(** Send one request, wait for its response. [timeout_s] bounds both
    the write and the wait for the response. After any [Error] the
    connection is dead (the stream may be desynchronized) and further
    requests on it fail fast.

    The connection keeps the coloring its last [Delta] reply left (its
    patch base). A [Proto.Patch] answering a [Delta] is applied to that
    base and returned as the [Proto.Solution] it stands for, with
    starts the caller owns; a patch that does not edit the base or does
    not match its digest is [Corrupt], and drops the base with the
    connection. So callers never see a [Patch]. *)

val send : ?timeout_s:float -> t -> Proto.request -> (unit, error) result
(** Write one request frame without waiting for a response — the
    half-duplex side of a replication stream ({!Replica} sends one
    [Replicate] and then only receives). After an [Error] the
    connection is dead. *)

val recv :
  ?idle_timeout_s:float ->
  ?io_timeout_s:float ->
  t ->
  (Proto.response, error) result
(** Read one response frame. [idle_timeout_s] bounds the wait for the
    frame to start (a replication stream is idle between ops;
    heartbeats bound the silence), [io_timeout_s] the read once bytes
    flow. After an [Error] the connection is dead. *)

val ping : ?timeout_s:float -> t -> (int, error) result
(** Round-trip; returns the server's protocol version. *)

val solve :
  ?timeout_s:float ->
  t ->
  ?opts:Proto.solve_options ->
  Ivc_grid.Stencil.t ->
  (Proto.response, error) result
(** The response is [Solution], [Shed] or [Error] — saturation is an
    expected answer, so no flattening into [Error]. *)

val stats : ?timeout_s:float -> t -> (string, error) result
(** The server's metrics document as a JSON string. *)

val shutdown : ?timeout_s:float -> t -> (unit, error) result
(** Ask the daemon to stop gracefully. *)

val health : ?timeout_s:float -> t -> (Proto.health, error) result
(** The server's readiness snapshot. *)

val delta :
  ?timeout_s:float ->
  t ->
  ?budget:int ->
  fp:int64 ->
  Ivc_incremental.Delta.t ->
  (Proto.response, error) result
(** Ask the server to incrementally repair the cached solution keyed
    by chain fingerprint [fp] (the instance fingerprint right after a
    solve, advanced with {!Ivc_incremental.Delta.chain_fp} per applied
    delta). The response is [Solution] (fingerprint = the advanced
    chain key, provenance = [repaired(...)] or [resolved]) or a typed
    [Error] — [Unknown_fingerprint] means re-solve. *)

val promote : ?timeout_s:float -> t -> (int, error) result
(** Ask a standby to start serving ([Promote]); returns the promoted
    server's applied sequence. Idempotent against a primary. *)

val verify_solution :
  Ivc_grid.Stencil.t -> Proto.solution -> (Proto.solution, error) result
(** End-to-end verification of a Solution against the instance that
    was asked about: the fingerprint must match and the coloring must
    re-certify locally at its claimed maxcolor. The transport cannot
    detect in-flight payload corruption that preserves framing; this
    can. *)

val verify_delta :
  expect_fp:int64 ->
  Ivc_grid.Stencil.t ->
  Proto.solution ->
  (Proto.solution, error) result
(** End-to-end verification of a [Delta] reply: [inst] is the
    client's own instance mirror after applying the delta locally
    ({!Ivc_incremental.Delta.apply_pure}), [expect_fp] the client's
    own advanced chain fingerprint. The repaired coloring must
    re-certify against the mirror at its claimed maxcolor and the
    server must echo the advanced key. *)

(** {1 Seeded retry} *)

type retry = {
  attempts : int;  (** total tries, including the first *)
  base_delay_s : float;
  max_delay_s : float;
  jitter : float;  (** fraction of each delay randomized away, 0..1 *)
  seed : int;  (** jitter determinism *)
  connect_timeout_s : float;
  request_timeout_s : float option;  (** [None] = wait indefinitely *)
}

val default_retry : retry
(** 4 attempts, 50 ms base doubling to a 1 s cap, 0.5 jitter, seed 0,
    5 s connect timeout, no request timeout. *)

val retry_delay_s : retry -> attempt:int -> float
(** The jittered backoff before re-attempt [attempt] (0-based):
    [min(max_delay_s, base * 2^attempt)] scaled down by up to
    [jitter], deterministic in (seed, attempt). *)

val solve_verified :
  ?retry:retry ->
  addr:Server.addr ->
  ?opts:Proto.solve_options ->
  Ivc_grid.Stencil.t ->
  (Proto.response, error) result
(** One idempotent solve with reconnection: each attempt opens a
    fresh connection, sends the Solve, and closes. A returned
    [Solution] has passed {!verify_solution} — transport damage that
    survives framing is caught, turned into [Corrupt], and retried.
    Frame-level rejections ([Bad_frame], [Bad_request], [Bad_version],
    [Conn_timeout]) mean the request was damaged or stalled in
    flight, so the untouched original is retried too. Genuine server
    decisions ([Shed], [Internal], [Cert_failed]) are returned as-is,
    not retried: a saturated or failing server must not be hammered.
    Re-issuing after an ambiguous failure is safe because a Solve is
    idempotent, keyed by the instance fingerprint the response must
    echo. *)

val delta_verified :
  ?retry:retry ->
  addr:Server.addr ->
  ?budget:int ->
  fp:int64 ->
  mirror:Ivc_grid.Stencil.t ->
  Ivc_incremental.Delta.t ->
  (Proto.response, error) result
(** {!solve_verified}'s discipline for a [Delta]: same jittered
    schedule, same reconnect-per-attempt, same typed-rejection rules —
    plus the re-key hazard deltas add. A delta is not idempotent: when
    an attempt fails {e after} the request was sent, the server may
    have applied it and advanced the chain, so the retry's
    [Unknown_fingerprint] is ambiguous between "evicted" and "already
    landed". In exactly that case the client probes with an empty
    [Batch] at the advanced key (a valid no-op delta): a verified
    answer proves the original landed and is returned — the caller
    must adopt its [fingerprint] as the new chain key (the probe
    advanced the chain once more). A failed probe returns the original
    [Unknown_fingerprint], and re-solving is always safe. [mirror] is
    the caller's instance after applying the delta locally
    ({!Ivc_incremental.Delta.apply_pure}); every returned [Solution]
    has passed {!verify_delta} against it. *)

(** {1 Multi-endpoint failover} *)

type failover = {
  endpoint : Server.addr;  (** the endpoint that answered *)
  endpoint_index : int;  (** its position in the caller's list *)
  attempt : int;  (** 0-based round the answer came from *)
  failed_over : bool;  (** anything other than first-endpoint-first-try *)
}
(** Provenance of a failover answer, so callers (and the failover
    oracle) can tell a clean primary hit from a ride through the
    endpoint list. *)

val failover_to_string : failover -> string

val solve_failover :
  ?retry:retry ->
  endpoints:Server.addr list ->
  ?opts:Proto.solve_options ->
  Ivc_grid.Stencil.t ->
  (Proto.response * failover, error) result
(** {!solve_verified} over an ordered endpoint list (primary first,
    standbys after). Each round walks the list: transport failures,
    verification failures and [Not_primary] refusals advance to the
    next endpoint; an exhausted round sleeps the jittered backoff and
    walks again — riding out the promotion window after a primary
    dies. Raises [Invalid_argument] on an empty list. *)

val delta_failover :
  ?retry:retry ->
  endpoints:Server.addr list ->
  ?budget:int ->
  fp:int64 ->
  mirror:Ivc_grid.Stencil.t ->
  Ivc_incremental.Delta.t ->
  (Proto.response * failover, error) result
(** {!solve_failover}'s shape for a delta, with the endpoint-local
    fallback replacing {!delta_verified}'s probe: any
    [Unknown_fingerprint] — eviction, a standby that never replayed
    this chain, or an ambiguous retry — re-issues as a full [Solve] of
    [mirror] on the same connection, which is idempotent and correct
    whether or not the delta landed anywhere. The returned
    [Solution]'s [fingerprint] is the caller's new chain key in every
    case. *)
