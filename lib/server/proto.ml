(* Frames are deliberately minimal: a 4-byte magic catches cross-talk
   and text-mode mangling, a 4-byte little-endian length bounds the
   read, and the body reuses the snapshot Codec so every field is
   fixed-width or length-prefixed — cutting a body at any byte is
   detected, never misparsed (the same property the snapshot format
   leans on). CRC is left to the kernel: TCP/Unix sockets already
   checksum, unlike the disk path lib/persist defends. *)

module S = Ivc_grid.Stencil
module D = Ivc_incremental.Delta
module Engine = Ivc_incremental.Engine
module Codec = Ivc_persist.Codec
module Obs = Ivc_obs

let version = 5
let op_version = 4
let magic = "IVCR"
let default_max_frame = 16 * 1024 * 1024

type solve_options = {
  deadline_s : float option;
  priority : int;
  budget : int option;
  improve : bool;
  use_cache : bool;
}

let default_solve_options =
  {
    deadline_s = None;
    priority = 10;
    budget = None;
    improve = true;
    use_cache = true;
  }

type request =
  | Ping
  | Solve of { inst : S.t; opts : solve_options }
  | Stats
  | Shutdown
  | Health
  | Delta of { fp : int64; delta : D.t; budget : int option }
  | Replicate of { from_seq : int }
  | Promote

type shed_code = Queue_full | Too_large | Expired_in_queue

type error_code =
  | Bad_frame
  | Bad_version
  | Bad_request
  | Cert_failed
  | Internal
  | Conn_timeout
  | Unknown_fingerprint
  | Not_primary

type degrade = Shrunk_budget | Heuristic_only

type patch = {
  base_fp : int64;
  fingerprint : int64;
  n : int;
  cells : int array;
  values : int array;
  digest : int;
  maxcolor : int;
  provenance : string;
  elapsed_s : float;
}

type solution = {
  starts : int array;
  maxcolor : int;
  lower_bound : int;
  provenance : string;
  proven_optimal : bool;
  elapsed_s : float;
  cache_hit : bool;
  resumed : bool;
  degraded : degrade option;
  fingerprint : int64;
}

type role = Primary | Standby

type health = {
  ready : bool;
  draining : bool;
  queue_depth : int;
  running : int;
  connections : int;
  brownout : degrade option;
  uptime_s : float;
  role : role;
  applied_seq : int;
  replication_lag : int;
  last_scrub_s : float;
  quarantined : int;
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
  | Repl_heartbeat of { head : int }
  | Promoted of { applied_seq : int }
  | Patch of patch

let shed_code_to_string = function
  | Queue_full -> "queue-full"
  | Too_large -> "too-large"
  | Expired_in_queue -> "expired-in-queue"

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Bad_version -> "bad-version"
  | Bad_request -> "bad-request"
  | Cert_failed -> "cert-failed"
  | Internal -> "internal"
  | Conn_timeout -> "conn-timeout"
  | Unknown_fingerprint -> "unknown-fingerprint"
  | Not_primary -> "not-primary"

let degrade_to_string = function
  | Shrunk_budget -> "shrunk-budget"
  | Heuristic_only -> "heuristic-only"

let role_to_string = function Primary -> "primary" | Standby -> "standby"

(* ---- body codecs ---------------------------------------------------- *)

let shed_tag = function Queue_full -> 0 | Too_large -> 1 | Expired_in_queue -> 2

let shed_of_tag = function
  | 0 -> Queue_full
  | 1 -> Too_large
  | 2 -> Expired_in_queue
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown shed code %d" n))

let error_tag = function
  | Bad_frame -> 0
  | Bad_version -> 1
  | Bad_request -> 2
  | Cert_failed -> 3
  | Internal -> 4
  | Conn_timeout -> 5
  | Unknown_fingerprint -> 6
  | Not_primary -> 7

let error_of_tag = function
  | 0 -> Bad_frame
  | 1 -> Bad_version
  | 2 -> Bad_request
  | 3 -> Cert_failed
  | 4 -> Internal
  | 5 -> Conn_timeout
  | 6 -> Unknown_fingerprint
  | 7 -> Not_primary
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown error code %d" n))

let degrade_tag = function
  | None -> 0
  | Some Shrunk_budget -> 1
  | Some Heuristic_only -> 2

let degrade_of_tag = function
  | 0 -> None
  | 1 -> Some Shrunk_budget
  | 2 -> Some Heuristic_only
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown degrade marker %d" n))

let write_inst b inst =
  (match (inst : S.t).dims with
  | S.D2 (x, y) ->
      Codec.W.int b 2;
      Codec.W.int b x;
      Codec.W.int b y
  | S.D3 (x, y, z) ->
      Codec.W.int b 3;
      Codec.W.int b x;
      Codec.W.int b y;
      Codec.W.int b z);
  Codec.W.int_array b (inst : S.t).w

let read_inst r =
  let d = Codec.R.int r in
  match d with
  | 2 ->
      let x = Codec.R.int r in
      let y = Codec.R.int r in
      let w = Codec.R.int_array r in
      (try S.make2 ~x ~y w
       with Invalid_argument m -> raise (Codec.Corrupt m))
  | 3 ->
      let x = Codec.R.int r in
      let y = Codec.R.int r in
      let z = Codec.R.int r in
      let w = Codec.R.int_array r in
      (try S.make3 ~x ~y ~z w
       with Invalid_argument m -> raise (Codec.Corrupt m))
  | d -> raise (Codec.Corrupt (Printf.sprintf "unknown dimensionality %d" d))

let write_delta b (d : D.t) =
  match d with
  | D.Bump { v; dw } ->
      Codec.W.int b 0;
      Codec.W.int b v;
      Codec.W.int b dw
  | D.Batch ops ->
      Codec.W.int b 1;
      Codec.W.int b (Array.length ops);
      Array.iter
        (fun (v, dw) ->
          Codec.W.int b v;
          Codec.W.int b dw)
        ops
  | D.Extend { slabs; w } ->
      Codec.W.int b 2;
      Codec.W.int b slabs;
      Codec.W.int_array b w

let read_delta r =
  match Codec.R.int r with
  | 0 ->
      let v = Codec.R.int r in
      let dw = Codec.R.int r in
      D.Bump { v; dw }
  | 1 ->
      let n = Codec.R.int r in
      if n < 0 || n > 1_000_000 then
        raise (Codec.Corrupt (Printf.sprintf "batch of %d ops" n));
      D.Batch
        (Array.init n (fun _ ->
             let v = Codec.R.int r in
             let dw = Codec.R.int r in
             (v, dw)))
  | 2 ->
      let slabs = Codec.R.int r in
      let w = Codec.R.int_array r in
      D.Extend { slabs; w }
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown delta tag %d" t))

let write_opts b o =
  Codec.W.option b Codec.W.float o.deadline_s;
  Codec.W.int b o.priority;
  Codec.W.option b Codec.W.int o.budget;
  Codec.W.bool b o.improve;
  Codec.W.bool b o.use_cache

let read_opts r =
  let deadline_s = Codec.R.option r Codec.R.float in
  let priority = Codec.R.int r in
  let budget = Codec.R.option r Codec.R.int in
  let improve = Codec.R.bool r in
  let use_cache = Codec.R.bool r in
  { deadline_s; priority; budget; improve; use_cache }

let encode_request req =
  let b = Codec.W.create () in
  Codec.W.int b version;
  (match req with
  | Ping -> Codec.W.int b 0
  | Solve { inst; opts } ->
      Codec.W.int b 1;
      write_inst b inst;
      write_opts b opts
  | Stats -> Codec.W.int b 2
  | Shutdown -> Codec.W.int b 3
  | Health -> Codec.W.int b 4
  | Delta { fp; delta; budget } ->
      Codec.W.int b 5;
      Codec.W.i64 b fp;
      write_delta b delta;
      Codec.W.option b Codec.W.int budget
  | Replicate { from_seq } ->
      Codec.W.int b 6;
      Codec.W.int b from_seq
  | Promote -> Codec.W.int b 7);
  Codec.W.contents b

let decode_request body =
  match
    let r = Codec.R.of_string body in
    let v = Codec.R.int r in
    if v <> version then
      Result.Error
        (Bad_version, Printf.sprintf "protocol version %d, want %d" v version)
    else begin
      let tag = Codec.R.int r in
      let req =
        match tag with
        | 0 -> Ping
        | 1 ->
            let inst = read_inst r in
            let opts = read_opts r in
            Solve { inst; opts }
        | 2 -> Stats
        | 3 -> Shutdown
        | 4 -> Health
        | 5 ->
            let fp = Codec.R.i64 r in
            let delta = read_delta r in
            let budget = Codec.R.option r Codec.R.int in
            Delta { fp; delta; budget }
        | 6 ->
            let from_seq = Codec.R.int r in
            if from_seq < 0 then
              raise
                (Codec.Corrupt
                   (Printf.sprintf "negative replication cursor %d" from_seq));
            Replicate { from_seq }
        | 7 -> Promote
        | t -> raise (Codec.Corrupt (Printf.sprintf "unknown request tag %d" t))
      in
      Codec.R.expect_end r;
      Result.Ok req
    end
  with
  | result -> result
  | exception Codec.Corrupt m -> Result.Error (Bad_request, m)

let write_solution b s =
  Codec.W.int_array b s.starts;
  Codec.W.int b s.maxcolor;
  Codec.W.int b s.lower_bound;
  Codec.W.string b s.provenance;
  Codec.W.bool b s.proven_optimal;
  Codec.W.float b s.elapsed_s;
  Codec.W.bool b s.cache_hit;
  Codec.W.bool b s.resumed;
  Codec.W.int b (degrade_tag s.degraded);
  Codec.W.i64 b s.fingerprint

let read_solution r =
  let starts = Codec.R.int_array r in
  let maxcolor = Codec.R.int r in
  let lower_bound = Codec.R.int r in
  let provenance = Codec.R.string r in
  let proven_optimal = Codec.R.bool r in
  let elapsed_s = Codec.R.float r in
  let cache_hit = Codec.R.bool r in
  let resumed = Codec.R.bool r in
  let degraded = degrade_of_tag (Codec.R.int r) in
  let fingerprint = Codec.R.i64 r in
  {
    starts;
    maxcolor;
    lower_bound;
    provenance;
    proven_optimal;
    elapsed_s;
    cache_hit;
    resumed;
    degraded;
    fingerprint;
  }

let write_patch b (p : patch) =
  Codec.W.i64 b p.base_fp;
  Codec.W.i64 b p.fingerprint;
  Codec.W.int b p.n;
  Codec.W.int_array b p.cells;
  Codec.W.int_array b p.values;
  Codec.W.int b p.digest;
  Codec.W.int b p.maxcolor;
  Codec.W.string b p.provenance;
  Codec.W.float b p.elapsed_s

let read_patch r =
  let base_fp = Codec.R.i64 r in
  let fingerprint = Codec.R.i64 r in
  let n = Codec.R.int r in
  let cells = Codec.R.int_array r in
  let values = Codec.R.int_array r in
  if n < 0 || Array.length cells <> Array.length values then
    raise
      (Codec.Corrupt
         (Printf.sprintf "patch of %d cells, %d values, length %d"
            (Array.length cells) (Array.length values) n));
  let digest = Codec.R.int r in
  let maxcolor = Codec.R.int r in
  let provenance = Codec.R.string r in
  let elapsed_s = Codec.R.float r in
  {
    base_fp;
    fingerprint;
    n;
    cells;
    values;
    digest;
    maxcolor;
    provenance;
    elapsed_s;
  }

let role_tag = function Primary -> 0 | Standby -> 1

let role_of_tag = function
  | 0 -> Primary
  | 1 -> Standby
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown role %d" n))

let write_health b h =
  Codec.W.bool b h.ready;
  Codec.W.bool b h.draining;
  Codec.W.int b h.queue_depth;
  Codec.W.int b h.running;
  Codec.W.int b h.connections;
  Codec.W.int b (degrade_tag h.brownout);
  Codec.W.float b h.uptime_s;
  Codec.W.int b (role_tag h.role);
  Codec.W.int b h.applied_seq;
  Codec.W.int b h.replication_lag;
  Codec.W.float b h.last_scrub_s;
  Codec.W.int b h.quarantined

let read_health r =
  let ready = Codec.R.bool r in
  let draining = Codec.R.bool r in
  let queue_depth = Codec.R.int r in
  let running = Codec.R.int r in
  let connections = Codec.R.int r in
  let brownout = degrade_of_tag (Codec.R.int r) in
  let uptime_s = Codec.R.float r in
  let role = role_of_tag (Codec.R.int r) in
  let applied_seq = Codec.R.int r in
  let replication_lag = Codec.R.int r in
  let last_scrub_s = Codec.R.float r in
  let quarantined = Codec.R.int r in
  {
    ready;
    draining;
    queue_depth;
    running;
    connections;
    brownout;
    uptime_s;
    role;
    applied_seq;
    replication_lag;
    last_scrub_s;
    quarantined;
  }

let encode_response resp =
  let b = Codec.W.create () in
  Codec.W.int b version;
  (match resp with
  | Pong { version = v } ->
      Codec.W.int b 0;
      Codec.W.int b v
  | Solution s ->
      Codec.W.int b 1;
      write_solution b s
  | Shed { code; depth; message } ->
      Codec.W.int b 2;
      Codec.W.int b (shed_tag code);
      Codec.W.int b depth;
      Codec.W.string b message
  | Error { code; message } ->
      Codec.W.int b 3;
      Codec.W.int b (error_tag code);
      Codec.W.string b message
  | Stats_reply { json } ->
      Codec.W.int b 4;
      Codec.W.string b json
  | Shutting_down -> Codec.W.int b 5
  | Health_reply h ->
      Codec.W.int b 6;
      write_health b h
  | Op { seq; head; payload } ->
      Codec.W.int b 7;
      Codec.W.int b seq;
      Codec.W.int b head;
      Codec.W.string b payload
  | Repl_heartbeat { head } ->
      Codec.W.int b 8;
      Codec.W.int b head
  | Promoted { applied_seq } ->
      Codec.W.int b 9;
      Codec.W.int b applied_seq
  | Patch p ->
      Codec.W.int b 10;
      write_patch b p);
  Codec.W.contents b

let decode_response body =
  match
    let r = Codec.R.of_string body in
    let v = Codec.R.int r in
    if v <> version then
      Result.Error (Printf.sprintf "protocol version %d, want %d" v version)
    else begin
      let tag = Codec.R.int r in
      let resp =
        match tag with
        | 0 -> Pong { version = Codec.R.int r }
        | 1 -> Solution (read_solution r)
        | 2 ->
            let code = shed_of_tag (Codec.R.int r) in
            let depth = Codec.R.int r in
            let message = Codec.R.string r in
            Shed { code; depth; message }
        | 3 ->
            let code = error_of_tag (Codec.R.int r) in
            let message = Codec.R.string r in
            Error { code; message }
        | 4 -> Stats_reply { json = Codec.R.string r }
        | 5 -> Shutting_down
        | 6 -> Health_reply (read_health r)
        | 7 ->
            let seq = Codec.R.int r in
            let head = Codec.R.int r in
            let payload = Codec.R.string r in
            if seq < 0 || head < seq then
              raise
                (Codec.Corrupt
                   (Printf.sprintf "op cursor %d ahead of head %d" seq head));
            Op { seq; head; payload }
        | 8 -> Repl_heartbeat { head = Codec.R.int r }
        | 9 -> Promoted { applied_seq = Codec.R.int r }
        | 10 -> Patch (read_patch r)
        | t ->
            raise (Codec.Corrupt (Printf.sprintf "unknown response tag %d" t))
      in
      Codec.R.expect_end r;
      Result.Ok resp
    end
  with
  | result -> result
  | exception Codec.Corrupt m -> Result.Error m

(* ---- replicated operations ------------------------------------------ *)

(* The payload of one WAL record / replication [Op] frame: a completed
   operation the primary journaled. Versioned independently of the
   request/response codec ([op_version] up front, not [version])
   because these bytes live on disk and outlive any single connection:
   a wire bump must not orphan an existing log. *)

type op =
  | Op_solved of {
      fp : int64;
      inst : S.t;
      starts : int array;
      maxcolor : int;
      lower_bound : int;
      provenance : string;
      proven_optimal : bool;
    }
  | Op_delta of { fp : int64; delta : D.t }

let describe_op = function
  | Op_solved { fp; _ } -> Printf.sprintf "solved(%Lx)" fp
  | Op_delta { fp; delta } ->
      Printf.sprintf "delta(%Lx,%s)" fp (D.describe delta)

let encode_op op =
  let b = Codec.W.create () in
  Codec.W.int b op_version;
  (match op with
  | Op_solved { fp; inst; starts; maxcolor; lower_bound; provenance;
                proven_optimal } ->
      Codec.W.int b 0;
      Codec.W.i64 b fp;
      write_inst b inst;
      Codec.W.int_array b starts;
      Codec.W.int b maxcolor;
      Codec.W.int b lower_bound;
      Codec.W.string b provenance;
      Codec.W.bool b proven_optimal
  | Op_delta { fp; delta } ->
      Codec.W.int b 1;
      Codec.W.i64 b fp;
      write_delta b delta);
  Codec.W.contents b

let decode_op body =
  match
    let r = Codec.R.of_string body in
    let v = Codec.R.int r in
    if v <> op_version then
      Result.Error (Printf.sprintf "op version %d, want %d" v op_version)
    else begin
      let op =
        match Codec.R.int r with
        | 0 ->
            let fp = Codec.R.i64 r in
            let inst = read_inst r in
            let starts = Codec.R.int_array r in
            let maxcolor = Codec.R.int r in
            let lower_bound = Codec.R.int r in
            let provenance = Codec.R.string r in
            let proven_optimal = Codec.R.bool r in
            Op_solved
              {
                fp;
                inst;
                starts;
                maxcolor;
                lower_bound;
                provenance;
                proven_optimal;
              }
        | 1 ->
            let fp = Codec.R.i64 r in
            let delta = read_delta r in
            Op_delta { fp; delta }
        | t -> raise (Codec.Corrupt (Printf.sprintf "unknown op tag %d" t))
      in
      Codec.R.expect_end r;
      Result.Ok op
    end
  with
  | result -> result
  | exception Codec.Corrupt m -> Result.Error m

(* ---- delta replies and patches -------------------------------------- *)

let delta_solution ~starts ~maxcolor ~provenance ~elapsed_s ~fingerprint =
  {
    starts;
    maxcolor;
    (* the repair engine certifies, it does not bound *)
    lower_bound = 0;
    provenance;
    proven_optimal = false;
    elapsed_s;
    (* repaired incrementally, not served from the solution cache:
       provenance carries the repair story *)
    cache_hit = false;
    resumed = false;
    degraded = None;
    fingerprint;
  }

type base = { key : int64; starts : int array; digest : int }

(* A monomorphic copy: an [int array] store needs no write barrier, so
   this beats [Array.copy] on the large arrays replies carry. *)
let copy_starts a =
  let n = Array.length a in
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set c i (Array.unsafe_get a i)
  done;
  c

let base_of_solution (s : solution) =
  { key = s.fingerprint; starts = copy_starts s.starts;
    digest = Engine.digest_of s.starts }

(* Every check runs before the first write: growth covered by the
   listed cells, cells strictly ascending (so distinct, so the digest
   can be summed from the old starts up front) and in range, and the
   digest equal to the patch's. *)
let apply_patch b (p : patch) =
  let len = Array.length b.starts and k = Array.length p.cells in
  let fail fmt = Printf.ksprintf (fun m -> Result.Error m) fmt in
  if not (Int64.equal p.base_fp b.key) then
    fail "patch edits the coloring at %Lx, the base is at %Lx" p.base_fp b.key
  else if p.n < len then
    fail "patch shrinks the coloring from %d to %d cells" len p.n
  else if Array.length p.values <> k then
    fail "patch has %d cells but %d values" k (Array.length p.values)
  else if p.n - len > k then
    (* every grown cell leaves the -1 it starts at, so a patch lists
       it; this also bounds the growth by the frame that carried it *)
    fail "patch grows the coloring by %d cells but sets %d" (p.n - len) k
  else begin
    let bad = ref None and prev = ref (-1) in
    Array.iter
      (fun v ->
        if !bad = None && (v <= !prev || v >= p.n) then bad := Some v;
        prev := v)
      p.cells;
    match !bad with
    | Some v ->
        fail "patch cell %d out of order or outside [0, %d)" v p.n
    | None ->
        let d = ref b.digest in
        for v = len to p.n - 1 do
          d := !d + Engine.cell_digest v (-1)
        done;
        Array.iteri
          (fun i v ->
            let old = if v < len then b.starts.(v) else -1 in
            d := !d - Engine.cell_digest v old + Engine.cell_digest v p.values.(i))
          p.cells;
        if !d <> p.digest then
          fail "patched coloring digests to %x, the patch says %x" !d p.digest
        else begin
          let starts =
            if p.n = len then b.starts
            else begin
              let a = Array.make p.n (-1) in
              Array.blit b.starts 0 a 0 len;
              a
            end
          in
          Array.iteri (fun i v -> starts.(v) <- p.values.(i)) p.cells;
          Result.Ok { key = p.fingerprint; starts; digest = !d }
        end
  end

let solution_of_patch b (p : patch) =
  delta_solution ~starts:(copy_starts b.starts) ~maxcolor:p.maxcolor
    ~provenance:p.provenance ~elapsed_s:p.elapsed_s ~fingerprint:p.fingerprint

(* ---- frame transport ------------------------------------------------ *)

type frame_error = Eof | Bad_magic | Oversized of int | Truncated | Timed_out

exception Write_timeout

let frame_error_to_string = function
  | Eof -> "end of stream"
  | Bad_magic -> "bad frame magic"
  | Oversized n -> Printf.sprintf "frame body of %d bytes exceeds the cap" n
  | Truncated -> "stream truncated mid-frame"
  | Timed_out -> "connection deadline exceeded"

(* A deadline is (start, budget_s) against the monotonic clock, so a
   peer trickling one byte per select round cannot reset it. *)
let until_of_s = function None -> None | Some s -> Some (Obs.now_ns (), s)

(* Select with EINTR retry. [`Ready] may be spurious under load; the
   callers' subsequent read/write just blocks briefly in that case. *)
let wait_fd ~for_read fd (t0, budget_s) =
  let rec go () =
    let remaining = budget_s -. Obs.elapsed_s ~since:t0 in
    if remaining <= 0.0 then `Timeout
    else
      match
        if for_read then Unix.select [ fd ] [] [] remaining
        else Unix.select [] [ fd ] [] remaining
      with
      | [], [], [] -> `Timeout
      | _ -> `Ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait_readable ?until fd =
  match until with None -> `Ready | Some u -> wait_fd ~for_read:true fd u

let rec write_all ?until fd bytes off len =
  if len > 0 then begin
    (match until with
    | None -> ()
    | Some u -> (
        match wait_fd ~for_read:false fd u with
        | `Timeout -> raise Write_timeout
        | `Ready -> ()));
    let n = Unix.write fd bytes off len in
    write_all ?until fd bytes (off + n) (len - n)
  end

let write_frame ?io_timeout_s fd body =
  let len = String.length body in
  let frame = Bytes.create (8 + len) in
  Bytes.blit_string magic 0 frame 0 4;
  Bytes.set_int32_le frame 4 (Int32.of_int len);
  Bytes.blit_string body 0 frame 8 len;
  write_all ?until:(until_of_s io_timeout_s) fd frame 0 (8 + len)

(* Read exactly [len] bytes; [`Eof got] reports a short read. *)
let read_exactly ?until fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then `Ok buf
    else
      match wait_readable ?until fd with
      | `Timeout -> `Timeout
      | `Ready -> (
          match Unix.read fd buf off (len - off) with
          | 0 -> `Eof off
          | n -> go (off + n))
  in
  go 0

(* Consume and discard [len] bytes in bounded chunks, so an oversized
   frame cannot force an allocation of its own claimed size. *)
let discard ?until fd len =
  let chunk = Bytes.create 65536 in
  let rec go remaining =
    if remaining = 0 then `Ok
    else
      match wait_readable ?until fd with
      | `Timeout -> `Timeout
      | `Ready -> (
          match Unix.read fd chunk 0 (min remaining 65536) with
          | 0 -> `Eof
          | n -> go (remaining - n))
  in
  go len

let read_frame ?(max_frame = default_max_frame) ?(resync = true)
    ?idle_timeout_s ?io_timeout_s fd =
  (* The idle window covers waiting for a request to start arriving;
     once the first byte is in, the whole frame must land within the
     io window — that split is the slow-loris defense. *)
  match
    match idle_timeout_s with
    | None -> `Ready
    | Some s -> wait_fd ~for_read:true fd (Obs.now_ns (), s)
  with
  | `Timeout -> Result.Error Timed_out
  | `Ready -> (
      let until = until_of_s io_timeout_s in
      match read_exactly ?until fd 8 with
      | `Timeout -> Result.Error Timed_out
      | `Eof 0 -> Result.Error Eof
      | `Eof _ -> Result.Error Truncated
      | `Ok header ->
          if Bytes.sub_string header 0 4 <> magic then Result.Error Bad_magic
          else begin
            let len =
              Int32.to_int (Bytes.get_int32_le header 4) land 0xffffffff
            in
            if len > max_frame then
              (* a server keeps the stream usable by consuming the
                 oversized body before answering typed; a client that
                 kills the connection on any error must not wait on
                 phantom bytes a corrupted length field promises *)
              if not resync then Result.Error (Oversized len)
              else
                match discard ?until fd len with
                | `Ok -> Result.Error (Oversized len)
                | `Eof -> Result.Error Truncated
                | `Timeout -> Result.Error Timed_out
            else
              match read_exactly ?until fd len with
              | `Ok body -> Result.Ok (Bytes.unsafe_to_string body)
              | `Eof _ -> Result.Error Truncated
              | `Timeout -> Result.Error Timed_out
          end)
