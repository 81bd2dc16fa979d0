(* Every failure a request can hit — resolver, connect, syscall,
   frame damage, undecodable body, a response that decodes but lies —
   comes back as a typed [error], never an exception: the retry layer
   below (and every CLI caller) matches on the constructor, and a
   half-written request can never leak a file descriptor.

   [Corrupt] is the load-bearing case. A length-prefixed frame whose
   payload was damaged in flight can still decode into a structurally
   valid Solution; the transport cannot tell. [verify_solution] makes
   the end-to-end check: the coloring must re-certify locally and the
   fingerprint must match the instance we asked about — so a
   corrupted answer becomes a retryable [Corrupt], and an [Ok
   Solution] from {!solve_verified} is proof, not trust. *)

module Snapshot = Ivc_persist.Snapshot
module Cert = Ivc_resilient.Cert
module Faults = Ivc_resilient.Faults
module Delta = Ivc_incremental.Delta

type error =
  | Connect of string
  | Io of string
  | Timeout
  | Bad_response of string
  | Corrupt of string

let error_to_string = function
  | Connect m -> "connect: " ^ m
  | Io m -> "io: " ^ m
  | Timeout -> "timed out"
  | Bad_response m -> "bad response: " ^ m
  | Corrupt m -> "corrupt response: " ^ m

(* [base] mirrors the server's per-connection patch base: the coloring
   the last [Delta] reply on this connection left, which the next
   [Patch] edits. Both sides set it on every answered delta and the
   stream is strictly request/response, so they never disagree unless
   a frame lies — and then the key or the digest check catches it. *)
type t = {
  fd : Unix.file_descr;
  mutable alive : bool;
  mutable base : Proto.base option;
}

(* A write into a peer-closed socket must come back as a typed error,
   not kill the process. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let resolve = function
  | Server.Unix_sock path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Server.Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | inet -> Ok (Unix.PF_INET, Unix.ADDR_INET (inet, port))
      | exception Failure _ -> (
          match Unix.gethostbyname host with
          | exception Not_found -> Error (Connect ("cannot resolve " ^ host))
          | { Unix.h_addr_list = [||]; _ } ->
              Error (Connect ("no address for " ^ host))
          | h ->
              Ok (Unix.PF_INET, Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))
          ))

let connect ?timeout_s (addr : Server.addr) =
  Lazy.force ignore_sigpipe;
  match resolve addr with
  | Error _ as e -> e
  | Ok (domain, sockaddr) -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      let fail e =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error e
      in
      match timeout_s with
      | None -> (
          match Unix.connect fd sockaddr with
          | () -> Ok { fd; alive = true; base = None }
          | exception Unix.Unix_error (e, _, _) ->
              fail (Connect (Unix.error_message e)))
      | Some budget_s -> (
          Unix.set_nonblock fd;
          let finish () =
            Unix.clear_nonblock fd;
            Ok { fd; alive = true; base = None }
          in
          let await () =
            (* connect in progress: writability signals the verdict,
               SO_ERROR carries it *)
            match Unix.select [] [ fd ] [] budget_s with
            | _, [ _ ], _ -> (
                match Unix.getsockopt_error fd with
                | None -> finish ()
                | Some e -> fail (Connect (Unix.error_message e)))
            | _ -> fail Timeout
            | exception Unix.Unix_error (e, _, _) ->
                fail (Connect (Unix.error_message e))
          in
          match Unix.connect fd sockaddr with
          | () -> finish ()
          | exception
              Unix.Unix_error
                ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
            ->
              await ()
          | exception Unix.Unix_error (e, _, _) ->
              fail (Connect (Unix.error_message e))))

let close t =
  t.alive <- false;
  t.base <- None;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* "unix:PATH", "HOST:PORT", or a bare path (a unix socket) — the
   endpoint syntax of --replica-of and repeated --endpoint flags. *)
let addr_of_string s =
  if s = "" then Error "empty endpoint"
  else
    match String.rindex_opt s ':' with
    | None -> Ok (Server.Unix_sock s)
    | Some i when String.sub s 0 i = "unix" ->
        let path = String.sub s (i + 1) (String.length s - i - 1) in
        if path = "" then Error "empty unix socket path"
        else Ok (Server.Unix_sock path)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 ->
            if host = "" then Error ("empty host in " ^ s)
            else Ok (Server.Tcp (host, p))
        | Some _ -> Error ("port out of range in " ^ s)
        | None -> Error ("invalid port in " ^ s))

(* A [Delta] reply resets the base; a [Patch] must edit the base we
   hold and digest to what the server says. Any failure drops the base
   with the connection, so one damaged patch cannot poison the next. *)
let absorb t req resp =
  match (req, resp) with
  | Proto.Delta _, Proto.Solution s ->
      t.base <- Some (Proto.base_of_solution s);
      Ok resp
  | Proto.Delta _, Proto.Patch p -> (
      match t.base with
      | None -> Error (Corrupt "patch reply without a base on this connection")
      | Some b -> (
          match Proto.apply_patch b p with
          | Ok b ->
              t.base <- Some b;
              Ok (Proto.Solution (Proto.solution_of_patch b p))
          | Error m -> Error (Corrupt m)))
  | _, Proto.Patch _ -> Error (Bad_response "patch reply to a non-delta request")
  | _ -> Ok resp

let request ?timeout_s t req =
  if not t.alive then Error (Io "connection already failed")
  else begin
    let dead e =
      t.alive <- false;
      t.base <- None;
      Error e
    in
    match Proto.write_frame ?io_timeout_s:timeout_s t.fd
            (Proto.encode_request req)
    with
    | exception Proto.Write_timeout -> dead Timeout
    | exception Unix.Unix_error (e, _, _) -> dead (Io (Unix.error_message e))
    | exception Sys_error m -> dead (Io m)
    | () -> (
        (* the idle window covers the server thinking; once the
           response starts flowing it must finish inside it too. No
           resync: this connection dies on any error, so an insane
           length field (payload corruption) must fail fast, not
           starve the io window waiting for phantom bytes *)
        match
          Proto.read_frame ~resync:false ?idle_timeout_s:timeout_s
            ?io_timeout_s:timeout_s t.fd
        with
        | exception Unix.Unix_error (e, _, _) ->
            dead (Io (Unix.error_message e))
        | exception Sys_error m -> dead (Io m)
        | Error Proto.Timed_out -> dead Timeout
        | Error e -> dead (Io (Proto.frame_error_to_string e))
        | Ok body -> (
            match Proto.decode_response body with
            | Error m -> dead (Bad_response m)
            | Ok resp -> (
                match absorb t req resp with
                | Ok _ as ok -> ok
                | Error e -> dead e)))
  end

(* Half-duplex primitives for the replication stream: after a
   [Replicate] request the connection never returns to
   request/response, so [Replica] sends once and then receives in a
   loop. Same fail-fast discipline as [request]: any error kills the
   connection. *)

let send ?timeout_s t req =
  if not t.alive then Error (Io "connection already failed")
  else begin
    let dead e =
      t.alive <- false;
      Error e
    in
    match
      Proto.write_frame ?io_timeout_s:timeout_s t.fd (Proto.encode_request req)
    with
    | () -> Ok ()
    | exception Proto.Write_timeout -> dead Timeout
    | exception Unix.Unix_error (e, _, _) -> dead (Io (Unix.error_message e))
    | exception Sys_error m -> dead (Io m)
  end

let recv ?idle_timeout_s ?io_timeout_s t =
  if not t.alive then Error (Io "connection already failed")
  else begin
    let dead e =
      t.alive <- false;
      Error e
    in
    match
      Proto.read_frame ~resync:false ?idle_timeout_s ?io_timeout_s t.fd
    with
    | exception Unix.Unix_error (e, _, _) -> dead (Io (Unix.error_message e))
    | exception Sys_error m -> dead (Io m)
    | Error Proto.Timed_out -> dead Timeout
    | Error e -> dead (Io (Proto.frame_error_to_string e))
    | Ok body -> (
        match Proto.decode_response body with
        | Error m -> dead (Bad_response m)
        | Ok resp -> Ok resp)
  end

let ping ?timeout_s t =
  match request ?timeout_s t Proto.Ping with
  | Ok (Proto.Pong { version }) -> Result.Ok version
  | Ok _ -> Result.Error (Bad_response "unexpected response to ping")
  | Error _ as e -> e

let solve ?timeout_s t ?(opts = Proto.default_solve_options) inst =
  request ?timeout_s t (Proto.Solve { inst; opts })

let stats ?timeout_s t =
  match request ?timeout_s t Proto.Stats with
  | Ok (Proto.Stats_reply { json }) -> Result.Ok json
  | Ok _ -> Result.Error (Bad_response "unexpected response to stats")
  | Error _ as e -> e

let shutdown ?timeout_s t =
  match request ?timeout_s t Proto.Shutdown with
  | Ok Proto.Shutting_down -> Result.Ok ()
  | Ok _ -> Result.Error (Bad_response "unexpected response to shutdown")
  | Error _ as e -> e

let health ?timeout_s t =
  match request ?timeout_s t Proto.Health with
  | Ok (Proto.Health_reply h) -> Result.Ok h
  | Ok _ -> Result.Error (Bad_response "unexpected response to health")
  | Error _ as e -> e

let delta ?timeout_s t ?budget ~fp d =
  request ?timeout_s t (Proto.Delta { fp; delta = d; budget })

let promote ?timeout_s t =
  match request ?timeout_s t Proto.Promote with
  | Ok (Proto.Promoted { applied_seq }) -> Result.Ok applied_seq
  | Ok (Proto.Error { code; message }) ->
      Result.Error
        (Bad_response (Proto.error_code_to_string code ^ ": " ^ message))
  | Ok _ -> Result.Error (Bad_response "unexpected response to promote")
  | Error _ as e -> e

(* ---- verification ----------------------------------------------------- *)

let verify_against ~expect_fp inst (s : Proto.solution) =
  if not (Int64.equal s.Proto.fingerprint expect_fp) then
    Error
      (Corrupt
         (Printf.sprintf "fingerprint %Lx, expected %Lx" s.Proto.fingerprint
            expect_fp))
  else
    match Cert.check inst s.Proto.starts with
    | Error e -> Error (Corrupt ("certificate: " ^ Cert.to_string e))
    | Ok mc when mc <> s.Proto.maxcolor ->
        Error
          (Corrupt
             (Printf.sprintf "claimed maxcolor %d, certified %d"
                s.Proto.maxcolor mc))
    | Ok _ -> Ok s

let verify_solution inst (s : Proto.solution) =
  verify_against ~expect_fp:(Snapshot.fingerprint inst) inst s

(* The delta analogue: the caller advanced its own instance mirror
   (Delta.apply_pure) and its own chain fingerprint (Delta.chain_fp),
   so the server's answer must re-certify against the mirror and echo
   the advanced key — an [Ok] here is proof the repaired coloring is
   valid for the delta we actually sent, not trust in the server's
   repair path. *)
let verify_delta ~expect_fp inst (s : Proto.solution) =
  verify_against ~expect_fp inst s

(* ---- retry layer ------------------------------------------------------ *)

type retry = {
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  jitter : float;
  seed : int;
  connect_timeout_s : float;
  request_timeout_s : float option;
}

let default_retry =
  {
    attempts = 4;
    base_delay_s = 0.05;
    max_delay_s = 1.0;
    jitter = 0.5;
    seed = 0;
    connect_timeout_s = 5.0;
    request_timeout_s = None;
  }

let retry_delay_s p ~attempt =
  Faults.backoff_s ~seed:p.seed ~base_s:p.base_delay_s ~max_s:p.max_delay_s
    ~jitter:p.jitter ~attempt

(* What one answer means to the retry walk: [Answer] ends it, [Retry]
   moves on to the next endpoint (or the next round) and carries the
   error to report if nothing later succeeds, plus whether the request
   may have been applied before it failed — the one fact a delta's
   retry needs (see {!delta_verified}). *)
type verdict =
  | Answer of Proto.response
  | Retry of { err : error; landed : bool }

(* Classify one answer. A verified [Solution] is an answer and an
   unverifiable one is retried (it arrived, so it may have landed).
   Frame-level rejections mean the server rejected what *arrived* —
   when the request was damaged or stalled in flight, that is a
   transport failure wearing a typed response, and the untouched
   original is safe to resend. [Not_primary] is retried only by the
   failover pair ([skip_standby]), which has another endpoint to try.
   The remaining typed answers (Shed, Internal, Cert_failed, and a
   standby's refusal to a single-address call) are server decisions
   about a request it understood: return them, do not hammer a
   saturated or failing server. *)
let classify ~skip_standby ~verify = function
  | Ok (Proto.Solution s) -> (
      match verify s with
      | Ok s -> Answer (Proto.Solution s)
      | Error err -> Retry { err; landed = true })
  | Ok (Proto.Error { code = Proto.Not_primary; message }) when skip_standby ->
      Retry { err = Io ("standby refused: " ^ message); landed = false }
  | Ok
      (Proto.Error
         {
           code =
             ( Proto.Bad_frame | Proto.Bad_request | Proto.Bad_version
             | Proto.Conn_timeout );
           message;
         }) ->
      Retry
        { err = Io ("server rejected the frame: " ^ message); landed = false }
  | Ok resp -> Answer resp
  | Error err -> Retry { err; landed = true }

(* The retry walk behind all four retrying calls. Each round walks the
   endpoint list in order — a single address is a one-endpoint list —
   with a fresh connection per attempt, closed on every path; an
   exhausted round backs off with the shared jittered schedule before
   walking the list again. [exchange send] runs one attempt, [send]
   being {!request} on its connection; an [Answer] ends the walk with
   the endpoint index and round that produced it. *)
let walk retry eps exchange =
  let rec round k last_err =
    if k >= max 1 retry.attempts then Error last_err
    else begin
      if k > 0 then Thread.delay (retry_delay_s retry ~attempt:(k - 1));
      let rec next i last_err =
        if i >= Array.length eps then round (k + 1) last_err
        else
          match connect ~timeout_s:retry.connect_timeout_s eps.(i) with
          | Error e -> next (i + 1) e
          | Ok c -> (
              let send = request ?timeout_s:retry.request_timeout_s c in
              match
                Fun.protect
                  ~finally:(fun () -> close c)
                  (fun () -> exchange send)
              with
              | Answer resp -> Ok (resp, i, k)
              | Retry { err; _ } -> next (i + 1) err)
      in
      next 0 last_err
    end
  in
  round 0 (Connect "no attempt made")

let answer_only = Result.map (fun (resp, _, _) -> resp)

(* Re-issue is safe: a Solve is idempotent, keyed by the instance
   fingerprint the response must echo. *)
let solve_verified ?(retry = default_retry) ~addr
    ?(opts = Proto.default_solve_options) inst =
  walk retry [| addr |] (fun send ->
      classify ~skip_standby:false ~verify:(verify_solution inst)
        (send (Proto.Solve { inst; opts })))
  |> answer_only

(* Deltas are NOT idempotent the way solves are: re-sending a delta
   that already landed is rejected as [Unknown_fingerprint] (the chain
   advanced past the key we are using), which is indistinguishable on
   its face from eviction. [ambiguous] records whether any earlier
   attempt could have landed (a failure after the request may have
   left the server applied-but-unacknowledged); only then does an
   [Unknown_fingerprint] trigger the probe: an empty [Batch] at the
   advanced key is a valid no-op, and a verified answer to it is proof
   the original landed — its fingerprint is the caller's new chain
   key. A probe that itself answers [Unknown_fingerprint] (or fails)
   demotes to the original Unknown: the caller re-solves, which is
   always safe. *)
let delta_verified ?(retry = default_retry) ~addr ?budget ~fp ~mirror d =
  let expect_fp = Delta.chain_fp fp d in
  let probe = Delta.Batch [||] in
  let probe_fp = Delta.chain_fp expect_fp probe in
  let ambiguous = ref false in
  walk retry [| addr |] (fun send ->
      match send (Proto.Delta { fp; delta = d; budget }) with
      | Ok (Proto.Error { code = Proto.Unknown_fingerprint; _ } as orig)
        when !ambiguous -> (
          match
            send (Proto.Delta { fp = expect_fp; delta = probe; budget = None })
          with
          | Ok (Proto.Solution s) -> (
              match verify_delta ~expect_fp:probe_fp mirror s with
              | Ok s -> Answer (Proto.Solution s)
              | Error _ -> Answer orig)
          | _ -> Answer orig)
      | r ->
          let v =
            classify ~skip_standby:false
              ~verify:(verify_delta ~expect_fp mirror)
              r
          in
          (match v with
          | Retry { landed = true; _ } -> ambiguous := true
          | _ -> ());
          v)
  |> answer_only

(* ---- multi-endpoint failover ------------------------------------------ *)

type failover = {
  endpoint : Server.addr;
  endpoint_index : int;
  attempt : int;
  failed_over : bool;
}

let failover_to_string f =
  Printf.sprintf "endpoint %d (%s), attempt %d%s" f.endpoint_index
    (Server.addr_to_string f.endpoint)
    f.attempt
    (if f.failed_over then ", failed over" else "")

(* A refused standby advances to the next endpoint like a transport
   failure, so the window where a killed primary's standby has not yet
   been promoted (or its lease has not yet expired) is ridden out by
   retrying, not surfaced to the caller. *)
let failover_walk ~who retry endpoints exchange =
  match endpoints with
  | [] -> invalid_arg ("Client." ^ who ^ ": empty endpoint list")
  | eps ->
      let eps = Array.of_list eps in
      walk retry eps exchange
      |> Result.map (fun (resp, i, attempt) ->
             ( resp,
               {
                 endpoint = eps.(i);
                 endpoint_index = i;
                 attempt;
                 failed_over = i > 0 || attempt > 0;
               } ))

let solve_failover ?(retry = default_retry) ~endpoints
    ?(opts = Proto.default_solve_options) inst =
  failover_walk ~who:"solve_failover" retry endpoints (fun send ->
      classify ~skip_standby:true ~verify:(verify_solution inst)
        (send (Proto.Solve { inst; opts })))

(* The failover delta does not need the landed-or-not probe: an
   [Unknown_fingerprint] anywhere (evicted, a standby that never saw
   the chain, or an ambiguous retry) falls back to a full solve of the
   caller's mirror on the same endpoint — idempotent by construction,
   and the returned fingerprint (the mirror's own) is the new chain
   key either way. *)
let delta_failover ?(retry = default_retry) ~endpoints ?budget ~fp ~mirror d =
  let expect_fp = Delta.chain_fp fp d in
  failover_walk ~who:"delta_failover" retry endpoints (fun send ->
      match send (Proto.Delta { fp; delta = d; budget }) with
      | Ok (Proto.Error { code = Proto.Unknown_fingerprint; _ }) ->
          classify ~skip_standby:true ~verify:(verify_solution mirror)
            (send
               (Proto.Solve
                  { inst = mirror; opts = Proto.default_solve_options }))
      | r ->
          classify ~skip_standby:true
            ~verify:(verify_delta ~expect_fp mirror)
            r)
