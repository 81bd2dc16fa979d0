(* Thread-per-connection front end over a shared domain pool.

   Connections are IO-bound (read a frame, wait for a solve, write a
   frame), so they live on cheap systhreads; the solves are the actual
   work and run on the Taskpar.Service worker domains. One request is
   in flight per connection — a client that wants concurrency opens
   more connections, which keeps response ordering trivial and the
   per-connection state machine two states big.

   Shutdown discipline (stop): stop accepting, drain the pool (every
   queued job still delivers its response), half-close the surviving
   connections (SHUTDOWN_RECEIVE: their readers see EOF, their pending
   writes still flush), join everything. Connection records are closed
   under one lock so a file descriptor is never shut down after its
   number has been reused. *)

module S = Ivc_grid.Stencil
module Snapshot = Ivc_persist.Snapshot
module Wal = Ivc_persist.Wal
module Scrub = Ivc_persist.Scrub
module Driver = Ivc_resilient.Driver
module Deadline = Ivc_resilient.Deadline
module Cert = Ivc_resilient.Cert
module Obs = Ivc_obs
module Json = Ivc_obs.Json

let c_requests = Obs.Counter.make "server.requests"
let c_solved = Obs.Counter.make "server.solved"
let c_sheds = Obs.Counter.make "server.sheds"
let c_shed_queue_full = Obs.Counter.make "server.sheds_queue_full"
let c_shed_too_large = Obs.Counter.make "server.sheds_too_large"
let c_shed_expired = Obs.Counter.make "server.sheds_expired_in_queue"
let c_bad_frames = Obs.Counter.make "server.bad_frames"
let c_cert_failures = Obs.Counter.make "server.cert_failures"
let c_internal = Obs.Counter.make "server.internal_errors"
let c_conns = Obs.Counter.make "server.connections_accepted"
let c_resumed = Obs.Counter.make "server.resumed_solves"
let c_conn_timeouts = Obs.Counter.make "server.conn_timeouts"
let c_degraded = Obs.Counter.make "server.degraded"
let c_deltas = Obs.Counter.make "server.deltas"
let c_delta_repaired = Obs.Counter.make "server.delta_repaired"
let c_delta_resolved = Obs.Counter.make "server.delta_resolved"
let c_delta_unknown = Obs.Counter.make "server.delta_unknown_fp"
let c_delta_patched = Obs.Counter.make "server.delta_patched"
let c_repair_seeded = Obs.Counter.make "server.repair_seeded"
let c_repair_evicted = Obs.Counter.make "server.repair_evicted"
let c_repair_compactions = Obs.Counter.make "server.repair_compactions"
let c_wal_errors = Obs.Counter.make "server.wal_append_errors"
let c_repl_shipped = Obs.Counter.make "server.repl_ops_shipped"
let c_repl_wal_reads = Obs.Counter.make "server.repl_ops_read_back"
let c_repl_applied = Obs.Counter.make "server.repl_ops_applied"
let c_repl_rejected = Obs.Counter.make "server.repl_ops_rejected"
let c_standby_refused = Obs.Counter.make "server.standby_refused"
let c_promotions = Obs.Counter.make "server.promotions"
let c_scrub_passes = Obs.Counter.make "server.scrub_passes"
let g_connections = Obs.Gauge.make "server.connections_open"
let g_repl_lag = Obs.Gauge.make "server.replication_lag"

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type config = {
  addr : addr;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  max_vertices : int;
  max_frame : int;
  default_deadline_s : float;
  deadline_cap_s : float;
  autosave_dir : string option;
  autosave_every_s : float;
  idle_timeout_s : float;
  io_timeout_s : float;
  brownout_low : float;
  brownout_high : float;
  brownout_budget : int;
  repair_capacity : int;
  standby : bool;
  wal_dir : string option;
  wal_segment_bytes : int;
  wal_fsync : bool;
  lease_s : float;
  scrub_every_s : float;
  scrub_dirs : string list;
}

let default_config addr =
  {
    addr;
    workers = 2;
    queue_capacity = 32;
    cache_capacity = 256;
    max_vertices = 4_000_000;
    max_frame = Proto.default_max_frame;
    default_deadline_s = 5.0;
    deadline_cap_s = 60.0;
    autosave_dir = None;
    autosave_every_s = 5.0;
    idle_timeout_s = 300.0;
    io_timeout_s = 30.0;
    brownout_low = 0.75;
    brownout_high = 0.95;
    brownout_budget = 500;
    repair_capacity = 16;
    standby = false;
    wal_dir = None;
    wal_segment_bytes = 1 lsl 20;
    wal_fsync = true;
    lease_s = 10.0;
    scrub_every_s = 0.0;
    scrub_dirs = [];
  }

(* Brownout sits strictly below the hard queue limit: occupancy is the
   fraction of admission slots in use, and between the watermarks a
   request is admitted with shrunk work instead of shed, so the queue
   drains faster exactly when it is filling up. *)
let brownout_of cfg ~occupancy : Proto.degrade option =
  if occupancy >= cfg.brownout_high then Some Proto.Heuristic_only
  else if occupancy >= cfg.brownout_low then Some Proto.Shrunk_budget
  else None

(* ---- repair-state table ----------------------------------------------

   Incremental repair state, keyed by chain fingerprint: the key of a
   fresh engine is the solved instance's fingerprint, and every
   applied delta re-keys the entry through Delta.chain_fp — so a
   client that replays the same delta sequence computes the same key
   without ever seeing the engine. One lock covers lookup, apply and
   re-key: applies are microseconds (worst case one O(n) fallback
   sweep), and serializing them is what keeps two connections from
   racing the same engine. Eviction is FIFO over seed insertions;
   re-keying leaves the stale key in the queue, which eviction simply
   skips and a periodic compaction drains (Engine state is one
   instance's worth of arrays, so the cap is a memory bound, not a hot
   path). Both critical sections unlock via Fun.protect: a surprise
   exception out of the engine must cost one reply, not wedge the
   table mutex — and with it every future delta and solve — forever. *)

module Repair = struct
  module Engine = Ivc_incremental.Engine

  type t = {
    mutex : Mutex.t;
    capacity : int;
    table : (int64, Engine.t) Hashtbl.t;
    fifo : int64 Queue.t;
    mutable evicted : int;  (* per-table, served in Stats *)
    mutable compactions : int;
  }

  let create ~capacity =
    {
      mutex = Mutex.create ();
      capacity = max 0 capacity;
      table = Hashtbl.create 16;
      fifo = Queue.create ();
      evicted = 0;
      compactions = 0;
    }

  let size t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.table in
    Mutex.unlock t.mutex;
    n

  let counters t =
    Mutex.lock t.mutex;
    let r = (t.evicted, t.compactions) in
    Mutex.unlock t.mutex;
    r

  let evict_to_capacity t =
    while Hashtbl.length t.table >= t.capacity && not (Queue.is_empty t.fifo) do
      let oldest = Queue.pop t.fifo in
      if Hashtbl.mem t.table oldest then begin
        Hashtbl.remove t.table oldest;
        t.evicted <- t.evicted + 1;
        Obs.Counter.incr c_repair_evicted
      end
    done

  (* Every successful apply pushes the advanced key and strands the old
     one in the queue, so under sustained delta traffic the queue grows
     even when the table does not. Once it outgrows the live table by a
     capacity's worth of slack, rebuild it keeping only live, first-seen
     keys (order preserved, so eviction stays oldest-first). Each
     compaction drops at least [capacity] nodes, so the cost is O(1)
     amortized per apply and the queue is bounded by
     [table + capacity + 1] nodes. *)
  let compact_fifo t =
    if Queue.length t.fifo > Hashtbl.length t.table + t.capacity then begin
      let seen = Hashtbl.create (Hashtbl.length t.table) in
      let live = Queue.create () in
      Queue.iter
        (fun k ->
          if Hashtbl.mem t.table k && not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            Queue.push k live
          end)
        t.fifo;
      Queue.clear t.fifo;
      Queue.transfer live t.fifo;
      t.compactions <- t.compactions + 1;
      Obs.Counter.incr c_repair_compactions
    end

  (* Seed repair state for a freshly solved instance. Idempotent per
     fingerprint; any exception out of [Engine.create] — concretely
     [Cert.Rejected], a kernel bug surfacing during the engine's own
     canonical solve — is swallowed: serving must not die because
     repair state could not be built. *)
  let seed t ~fp inst =
    if t.capacity > 0 then begin
      Mutex.lock t.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.mutex)
        (fun () ->
          if not (Hashtbl.mem t.table fp) then
            match Engine.create inst with
            | engine ->
                evict_to_capacity t;
                Hashtbl.replace t.table fp engine;
                Queue.push fp t.fifo;
                Obs.Counter.incr c_repair_seeded
            | exception _ -> ())
    end

  (* Apply one delta to the engine at [fp], re-keying the entry to the
     advanced chain fingerprint. The whole step runs under the table
     lock so concurrent deltas against one engine serialize, and so does
     [capture]: whatever the reply needs of the repaired engine has to
     be taken before the next apply moves it on. *)
  let apply t ~fp ?budget ~capture delta =
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        match Hashtbl.find_opt t.table fp with
        | None -> `Unknown
        | Some engine -> (
            match Engine.apply ?budget engine delta with
            | Ok outcome ->
                let fp' = Ivc_incremental.Delta.chain_fp fp delta in
                Hashtbl.remove t.table fp;
                Hashtbl.replace t.table fp' engine;
                Queue.push fp' t.fifo;
                compact_fifo t;
                `Applied (outcome, fp', capture engine)
            | Error (Engine.Bad_delta _ as e) ->
                (* engine untouched, entry stays *)
                `Failed e
            | Error (Engine.Cert_failed _ as e) ->
                (* untrusted state: drop the entry entirely *)
                Hashtbl.remove t.table fp;
                `Failed e
            | exception e ->
                (* the engine died mid-apply, its state is unknown:
                   drop the entry and report, rather than propagate *)
                Hashtbl.remove t.table fp;
                `Crashed (Printexc.to_string e)))
end

(* [base] is the chain key of the coloring this connection's last
   [Delta] reply left with the client, the base the next patch edits
   (the client keeps the same rule, see Client.absorb). *)
type conn = {
  fd : Unix.file_descr;
  mutable closed : bool;
  mutable base : int64 option;
}

(* ---- replication feed -------------------------------------------------

   The in-memory op feed: the journal's recent payloads by sequence
   number, exactly mirroring the WAL's record order (a rebooted primary
   rebuilds it from the WAL, so a replica's [from_seq] cursor stays
   valid across primary restarts). With a WAL the feed is a tail of at
   most [tail_bytes] of payload; a stream whose cursor falls behind it
   reads the older ops back from the WAL. Without a WAL nothing could
   read them back, so the feed keeps every op.

   One mutex + condvar covers the feed, the WAL append (serializing
   writers), and the standby's replication bookkeeping; replication
   streams park on the condvar and a heartbeat ticker broadcasts it on
   a period, which is what lets them send keep-alives without a timed
   wait. The role and the lease clock are atomics outside that mutex,
   so admission never waits out a journal fsync. *)

let tail_bytes = 4 * 1024 * 1024

module Feed = struct
  type t = {
    mutable ring : string array;
        (* seq lives in slot [seq land (length - 1)]; length a power of 2 *)
    mutable tail : int;  (* oldest retained seq *)
    mutable head : int;  (* next seq *)
    mutable bytes : int;  (* payload bytes in [tail, head) *)
    mutable bounded : bool;
        (* evict past [tail_bytes]: only while the WAL holds every
           evicted seq at its own position *)
  }

  let create ~bounded =
    { ring = Array.make 64 ""; tail = 0; head = 0; bytes = 0; bounded }

  let slot f seq = seq land (Array.length f.ring - 1)

  (* requires [tail <= seq < head] *)
  let get f seq = f.ring.(slot f seq)

  let push f payload =
    let cap = Array.length f.ring in
    if f.head - f.tail = cap then begin
      let bigger = Array.make (2 * cap) "" in
      for seq = f.tail to f.head - 1 do
        bigger.(seq land ((2 * cap) - 1)) <- get f seq
      done;
      f.ring <- bigger
    end;
    f.ring.(slot f f.head) <- payload;
    f.head <- f.head + 1;
    f.bytes <- f.bytes + String.length payload;
    if f.bounded then
      while f.bytes > tail_bytes do
        let i = slot f f.tail in
        f.bytes <- f.bytes - String.length f.ring.(i);
        f.ring.(i) <- "";
        f.tail <- f.tail + 1
      done
end

type repl = {
  rm : Mutex.t;
  rcond : Condition.t;
  role : Proto.role Atomic.t;
  feed : Feed.t;
  wal : Wal.t option;
  mutable applied : int;  (* standby: ops accepted from upstream *)
  mutable known_head : int;  (* standby: primary's head last seen *)
  last_contact_ns : int64 Atomic.t;  (* standby: lease clock *)
  mutable on_promote : (unit -> unit) option;
  mutable closing : bool;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  pool : Taskpar.Service.t;
  cache : Cache.t;
  repair : Repair.t;
  repl : repl;
  t0 : int64;
  state : Mutex.t;
  shutdown_cond : Condition.t;
  mutable stopping : bool;
  mutable shutdown_requested : bool;
  mutable conns : (conn * Thread.t) list;
  mutable acceptor : Thread.t option;
  mutable aux_threads : Thread.t list;  (* heartbeat ticker, scrubber *)
  mutable last_scrub_ns : int64 option;
  mutable quarantined_total : int;
}

(* WAL first (durability), then the feed (shipping); under [rm]. A WAL
   append failure is counted and the op still feeds — the answer was
   already served, so availability wins locally; the replica
   re-certifies everything it replays anyway. But from then on the WAL
   may no longer hold each op at its own sequence number, so the feed
   stops evicting: the ops it keeps are the only copy a stream can
   trust. *)
let feed_append r payload =
  (match r.wal with
  | Some w -> (
      try ignore (Wal.append w payload)
      with _ ->
        Obs.Counter.incr c_wal_errors;
        r.feed.Feed.bounded <- false)
  | None -> ());
  Feed.push r.feed payload

(* Journal one completed operation, then wake the streams. *)
let journal srv payload =
  let r = srv.repl in
  Mutex.lock r.rm;
  feed_append r payload;
  if Atomic.get r.role = Proto.Standby then r.applied <- r.feed.Feed.head;
  Condition.broadcast r.rcond;
  Mutex.unlock r.rm

(* ---- one-shot response mailbox -------------------------------------- *)

module Mailbox = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let put t v =
    Mutex.lock t.m;
    t.v <- Some v;
    Condition.signal t.c;
    Mutex.unlock t.m

  let take t =
    Mutex.lock t.m;
    let rec go () =
      match t.v with
      | Some v ->
          Mutex.unlock t.m;
          v
      | None ->
          Condition.wait t.c t.m;
          go ()
    in
    go ()
end

(* ---- the solve path -------------------------------------------------- *)

let snapshot_path dir fp = Filename.concat dir (Printf.sprintf "%Lx.snap" fp)

(* Fraction of admission slots in use; the hard limit sheds at 1.0
   (submit refuses when depth + running >= capacity + workers). *)
let occupancy srv =
  let slots = srv.cfg.queue_capacity + srv.cfg.workers in
  if slots <= 0 then 1.0
  else
    Float.of_int
      (Taskpar.Service.depth srv.pool + Taskpar.Service.running srv.pool)
    /. Float.of_int slots

(* Runs on a worker domain. Every exit puts exactly one response in the
   mailbox; no exception may escape into the pool. *)
let run_solve srv inst (opts : Proto.solve_options) ~degraded fp token mailbox
    =
  try
    if Deadline.expired token then begin
      Obs.Counter.incr c_sheds;
      Obs.Counter.incr c_shed_expired;
      Mailbox.put mailbox
        (Proto.Shed
           {
             code = Proto.Expired_in_queue;
             depth = Taskpar.Service.depth srv.pool;
             message = "deadline passed while queued";
           })
    end
    else begin
      let autosave, resume =
        match srv.cfg.autosave_dir with
        | None -> (None, None)
        | Some dir ->
            let path = snapshot_path dir fp in
            let resume =
              if Sys.file_exists path then
                match
                  Result.bind (Snapshot.load path) (Driver.decode_resume ~inst)
                with
                | Ok r ->
                    Obs.Counter.incr c_resumed;
                    Some r
                | Error _ -> None (* fail closed: fresh solve *)
              else None
            in
            ( Some
                (Ivc_persist.Autosave.make ~every_s:srv.cfg.autosave_every_s
                   path),
              resume )
      in
      match
        Driver.solve ~deadline:token ?budget:opts.budget
          ~improve:opts.improve
          ~exact:(degraded <> Some Proto.Heuristic_only)
          ?autosave ?resume inst
      with
      | Ok o ->
          Option.iter
            (fun dir ->
              let path = snapshot_path dir fp in
              if Sys.file_exists path then Sys.remove path)
            srv.cfg.autosave_dir;
          (* a degraded answer is certified but possibly weaker than a
             healthy solve of the same instance — never cache it *)
          if opts.use_cache && degraded = None then begin
            Cache.store srv.cache ~fp ~inst
              {
                Cache.starts = o.Driver.starts;
                maxcolor = o.Driver.maxcolor;
                lower_bound = o.Driver.lower_bound;
                provenance = Driver.provenance_to_string o.Driver.provenance;
                proven_optimal = o.Driver.proven_optimal;
              };
            (* seed repair state on the worker domain, where the O(n)
               canonical solve it needs belongs *)
            Repair.seed srv.repair ~fp inst;
            journal srv
              (Proto.encode_op
                 (Proto.Op_solved
                    {
                      fp;
                      inst;
                      starts = o.Driver.starts;
                      maxcolor = o.Driver.maxcolor;
                      lower_bound = o.Driver.lower_bound;
                      provenance =
                        Driver.provenance_to_string o.Driver.provenance;
                      proven_optimal = o.Driver.proven_optimal;
                    }))
          end;
          Obs.Counter.incr c_solved;
          Mailbox.put mailbox
            (Proto.Solution
               {
                 Proto.starts = o.Driver.starts;
                 maxcolor = o.Driver.maxcolor;
                 lower_bound = o.Driver.lower_bound;
                 provenance = Driver.provenance_to_string o.Driver.provenance;
                 proven_optimal = o.Driver.proven_optimal;
                 elapsed_s = o.Driver.elapsed_s;
                 cache_hit = false;
                 resumed = o.Driver.resumed;
                 degraded;
                 fingerprint = fp;
               })
      | Error e ->
          Obs.Counter.incr c_cert_failures;
          Mailbox.put mailbox
            (Proto.Error
               { code = Proto.Cert_failed; message = Cert.to_string e })
    end
  with e ->
    Obs.Counter.incr c_internal;
    Mailbox.put mailbox
      (Proto.Error { code = Proto.Internal; message = Printexc.to_string e })

let handle_solve srv inst (opts : Proto.solve_options) =
  Obs.Counter.incr c_requests;
  let n = S.n_vertices inst in
  if n > srv.cfg.max_vertices then begin
    Obs.Counter.incr c_sheds;
    Obs.Counter.incr c_shed_too_large;
    Proto.Shed
      {
        code = Proto.Too_large;
        depth = 0;
        message =
          Printf.sprintf "%d vertices exceed the %d admission cap" n
            srv.cfg.max_vertices;
      }
  end
  else begin
    let fp = Snapshot.fingerprint inst in
    let cached =
      if opts.use_cache then
        match Cache.find srv.cache ~fp ~inst with
        | Some e -> (
            (* paranoid: a cached answer is re-certified before it is
               served, so not even cache corruption can break the
               every-response-is-certified invariant *)
            match Cert.check inst e.Cache.starts with
            | Ok _ -> Some e
            | Error _ -> None)
        | None -> None
      else None
    in
    match cached with
    | Some e ->
        (* re-seed dropped/evicted repair state so a cache hit restores
           delta service for the instance too *)
        Repair.seed srv.repair ~fp inst;
        Proto.Solution
          {
            Proto.starts = e.Cache.starts;
            maxcolor = e.Cache.maxcolor;
            lower_bound = e.Cache.lower_bound;
            provenance = e.Cache.provenance;
            proven_optimal = e.Cache.proven_optimal;
            elapsed_s = 0.0;
            cache_hit = true;
            resumed = false;
            degraded = None;
            fingerprint = fp;
          }
    | None -> (
        let seconds =
          Float.min
            (Option.value opts.deadline_s
               ~default:srv.cfg.default_deadline_s)
            srv.cfg.deadline_cap_s
        in
        (* brownout decision at admission, from the same occupancy the
           hard queue limit is measured against *)
        let degraded = brownout_of srv.cfg ~occupancy:(occupancy srv) in
        let opts =
          match degraded with
          | None -> opts
          | Some Proto.Shrunk_budget ->
              {
                opts with
                Proto.budget =
                  Some
                    (match opts.budget with
                    | Some b -> min b srv.cfg.brownout_budget
                    | None -> srv.cfg.brownout_budget);
                improve = false;
              }
          | Some Proto.Heuristic_only -> { opts with Proto.improve = false }
        in
        if degraded <> None then Obs.Counter.incr c_degraded;
        let token = Deadline.make ~seconds () in
        let mailbox = Mailbox.create () in
        match
          Taskpar.Service.submit srv.pool ~priority:opts.priority (fun () ->
              run_solve srv inst opts ~degraded fp token mailbox)
        with
        | `Saturated depth ->
            Obs.Counter.incr c_sheds;
            Obs.Counter.incr c_shed_queue_full;
            Proto.Shed
              {
                code = Proto.Queue_full;
                depth;
                message =
                  Printf.sprintf "queue at capacity (%d waiting)" depth;
              }
        | `Accepted -> Mailbox.take mailbox)
  end

(* ---- the delta path --------------------------------------------------- *)

(* Answered inline on the connection thread: a repair is microseconds
   of work, so routing it through the solve queue would bury the very
   latency the incremental engine exists to deliver. The reply's
   fingerprint is the {e advanced} chain key the client must use for
   the next delta, its provenance records whether the engine repaired
   locally or fell back to a full sweep.

   Once the connection holds the coloring at [fp] — its previous delta
   reply left it there — the reply is a [Patch] of the engine's
   changed cells, built under the table lock in O(changed) instead of
   copying all n starts. A full [Solution] goes out for the first delta
   on a connection and whenever the patch (two ints a cell) would not
   be smaller than the full array (one int a cell). *)
let handle_delta srv conn ~fp ?budget delta =
  Obs.Counter.incr c_requests;
  Obs.Counter.incr c_deltas;
  let t0 = Obs.now_ns () in
  let patchable = conn.base = Some fp in
  let capture engine =
    let module Engine = Ivc_incremental.Engine in
    let n = Engine.n_vertices engine in
    match if patchable then Some (Engine.changed engine) else None with
    | Some cells when 2 * Array.length cells < n ->
        let starts = Engine.starts_view engine in
        `Patch (n, cells, Array.map (fun v -> starts.(v)) cells, Engine.digest engine)
    | _ -> `Full (Engine.starts engine)
  in
  match Repair.apply srv.repair ~fp ?budget ~capture delta with
  | `Unknown ->
      Obs.Counter.incr c_delta_unknown;
      Proto.Error
        {
          code = Proto.Unknown_fingerprint;
          message =
            Printf.sprintf
              "no repair state at %Lx (not solved here, evicted, or the \
               chain diverged); re-solve"
              fp;
        }
  | `Failed (Ivc_incremental.Engine.Bad_delta m) ->
      Proto.Error { code = Proto.Bad_request; message = m }
  | `Failed (Ivc_incremental.Engine.Cert_failed e) ->
      Obs.Counter.incr c_cert_failures;
      Proto.Error { code = Proto.Cert_failed; message = Cert.to_string e }
  | `Crashed message ->
      Obs.Counter.incr c_internal;
      Proto.Error { code = Proto.Internal; message }
  | `Applied (outcome, fp', captured) -> (
      (match outcome.Ivc_incremental.Engine.provenance with
      | Ivc_incremental.Engine.Repaired _ -> Obs.Counter.incr c_delta_repaired
      | Ivc_incremental.Engine.Resolved -> Obs.Counter.incr c_delta_resolved);
      (* journal by the PRE-apply chain key: a replayer holding the
         same chain applies the same delta through its own engine and
         derives fp' itself *)
      journal srv (Proto.encode_op (Proto.Op_delta { fp; delta }));
      conn.base <- Some fp';
      let maxcolor = outcome.Ivc_incremental.Engine.maxcolor
      and provenance =
        Ivc_incremental.Engine.provenance_to_string
          outcome.Ivc_incremental.Engine.provenance
      and elapsed_s = Obs.elapsed_s ~since:t0 in
      match captured with
      | `Patch (n, cells, values, digest) ->
          Obs.Counter.incr c_delta_patched;
          Proto.Patch
            {
              Proto.base_fp = fp;
              fingerprint = fp';
              n;
              cells;
              values;
              digest;
              maxcolor;
              provenance;
              elapsed_s;
            }
      | `Full starts ->
          Proto.Solution
            (Proto.delta_solution ~starts ~maxcolor ~provenance ~elapsed_s
               ~fingerprint:fp'))

(* ---- replication ------------------------------------------------------ *)

(* Apply one journaled op to this server's own cache / repair table.
   Fail closed on every path: a solved op is re-certified before it is
   stored (the log is an optimization, never an authority), a delta op
   goes through the repair engine's own certificate gate, and anything
   that does not check out is rejected — counted, skipped, serving
   intact. *)
let apply_op ~cache ~repair op =
  match op with
  | Proto.Op_solved
      { fp; inst; starts; maxcolor; lower_bound; provenance; proven_optimal }
    -> (
      match Cert.check inst starts with
      | Ok mc when mc = maxcolor ->
          Cache.store cache ~fp ~inst
            { Cache.starts; maxcolor; lower_bound; provenance; proven_optimal };
          Repair.seed repair ~fp inst;
          true
      | Ok _ | Error _ -> false
      | exception _ -> false)
  | Proto.Op_delta { fp; delta } -> (
      match Repair.apply repair ~fp ~capture:ignore delta with
      | `Applied _ -> true
      | `Unknown | `Failed _ | `Crashed _ -> false)

(* Decode and apply one journaled op, counting the verdict: the shared
   step of boot replay and the standby's stream. *)
let replay_op ~cache ~repair payload =
  match Proto.decode_op payload with
  | Ok op ->
      if apply_op ~cache ~repair op then Obs.Counter.incr c_repl_applied
      else Obs.Counter.incr c_repl_rejected
  | Error _ -> Obs.Counter.incr c_repl_rejected

let role srv = Atomic.get srv.repl.role

let repl_head srv =
  let r = srv.repl in
  Mutex.lock r.rm;
  let h = r.feed.Feed.head in
  Mutex.unlock r.rm;
  h

let repl_tail srv =
  let r = srv.repl in
  Mutex.lock r.rm;
  let t = r.feed.Feed.tail in
  Mutex.unlock r.rm;
  t

let repl_applied srv =
  let r = srv.repl in
  Mutex.lock r.rm;
  let a = r.applied in
  Mutex.unlock r.rm;
  a

let note_primary_contact srv ~head =
  let r = srv.repl in
  Mutex.lock r.rm;
  r.known_head <- max r.known_head head;
  Atomic.set r.last_contact_ns (Obs.now_ns ());
  Obs.Gauge.set g_repl_lag (Float.of_int (max 0 (r.known_head - r.applied)));
  Mutex.unlock r.rm

(* One replicated op from upstream, in strict sequence. Decode, apply
   (re-certifying), then journal into our OWN wal/feed — so a promoted
   standby is durable and can feed standbys of its own. The op lands
   in the feed even if certification rejected it: feed indices must
   mirror the upstream log or a cursor would mean different ops on
   different hosts. *)
let apply_replicated srv ~seq payload =
  let r = srv.repl in
  if seq <> repl_applied srv then
    Error
      (Printf.sprintf "replication cursor %d, expected %d" seq
         (repl_applied srv))
  else begin
    replay_op ~cache:srv.cache ~repair:srv.repair payload;
    Mutex.lock r.rm;
    feed_append r payload;
    r.applied <- r.feed.Feed.head;
    Atomic.set r.last_contact_ns (Obs.now_ns ());
    Obs.Gauge.set g_repl_lag (Float.of_int (max 0 (r.known_head - r.applied)));
    Condition.broadcast r.rcond;
    Mutex.unlock r.rm;
    Ok ()
  end

let set_on_promote srv f =
  let r = srv.repl in
  Mutex.lock r.rm;
  r.on_promote <- Some f;
  Mutex.unlock r.rm

(* Split-brain-safe promotion: flipping the role also detaches the
   upstream replication loop (the hook), so a revived old primary can
   never silently rewrite a promoted standby's state. Idempotent. *)
let promote srv =
  let r = srv.repl in
  Mutex.lock r.rm;
  let was = Atomic.get r.role in
  let hook = if was = Proto.Standby then r.on_promote else None in
  Atomic.set r.role Proto.Primary;
  let applied = r.feed.Feed.head in
  Condition.broadcast r.rcond;
  Mutex.unlock r.rm;
  if was = Proto.Standby then Obs.Counter.incr c_promotions;
  Option.iter (fun f -> f ()) hook;
  applied

(* The admission rule for solves and deltas. A standby serves only
   once its primary lease has lapsed (no op or heartbeat for
   [lease_s]) — while the primary is demonstrably alive, answering
   from replayed state would risk serving a stale chain alongside a
   live one. [Promote] flips the role and ends the question. Lock-free:
   the role only ever flips to primary and the lease clock only moves
   forward, so a [true] here was true at the moment the clock was
   read, and admission never queues behind a journal fsync. *)
let serving srv =
  let r = srv.repl in
  Atomic.get r.role = Proto.Primary
  || Obs.elapsed_s ~since:(Atomic.get r.last_contact_ns) >= srv.cfg.lease_s

let standby_refusal srv =
  Obs.Counter.incr c_standby_refused;
  Proto.Error
    {
      code = Proto.Not_primary;
      message =
        Printf.sprintf
          "standby at seq %d holds its primary's lease; Promote it or wait \
           out the lease"
          (repl_applied srv);
    }

(* ---- stats & health --------------------------------------------------- *)

let open_conns srv =
  Mutex.lock srv.state;
  let n = List.length (List.filter (fun (c, _) -> not c.closed) srv.conns) in
  Mutex.unlock srv.state;
  n

let health srv =
  let draining =
    Mutex.lock srv.state;
    let d = srv.stopping in
    Mutex.unlock srv.state;
    d
  in
  let brownout = brownout_of srv.cfg ~occupancy:(occupancy srv) in
  let r = srv.repl in
  Mutex.lock r.rm;
  let role = Atomic.get r.role in
  let applied_seq =
    match role with
    | Proto.Primary -> r.feed.Feed.head
    | Proto.Standby -> r.applied
  in
  let replication_lag =
    match role with
    | Proto.Primary -> 0
    | Proto.Standby -> max 0 (r.known_head - r.applied)
  in
  Mutex.unlock r.rm;
  {
    Proto.ready = not draining;
    draining;
    queue_depth = Taskpar.Service.depth srv.pool;
    running = Taskpar.Service.running srv.pool;
    connections = open_conns srv;
    brownout;
    uptime_s = Obs.elapsed_s ~since:srv.t0;
    role;
    applied_seq;
    replication_lag;
    last_scrub_s =
      (match srv.last_scrub_ns with
      | None -> -1.0
      | Some t -> Obs.elapsed_s ~since:t);
    quarantined = srv.quarantined_total;
  }

let stats_json srv =
  let num f = Json.Num f in
  let int i = num (Float.of_int i) in
  let brownout =
    match brownout_of srv.cfg ~occupancy:(occupancy srv) with
    | None -> "none"
    | Some d -> Proto.degrade_to_string d
  in
  Json.to_string
    (Json.Obj
       [
         ( "server",
           Json.Obj
             [
               ("uptime_s", num (Obs.elapsed_s ~since:srv.t0));
               ("workers", int srv.cfg.workers);
               ("queue_depth", int (Taskpar.Service.depth srv.pool));
               ("running", int (Taskpar.Service.running srv.pool));
               ("connections", int (open_conns srv));
               ("occupancy", num (occupancy srv));
               ("brownout", Json.Str brownout);
               ( "cache",
                 Json.Obj
                   [
                     ("size", int (Cache.size srv.cache));
                     ("capacity", int (Cache.capacity srv.cache));
                     ("evictions", int (Cache.evicted srv.cache));
                   ] );
               ( "repair",
                 let evicted, compactions = Repair.counters srv.repair in
                 Json.Obj
                   [
                     ("size", int (Repair.size srv.repair));
                     ("capacity", int srv.cfg.repair_capacity);
                     ("evictions", int evicted);
                     ("compactions", int compactions);
                   ] );
               ( "replication",
                 let h = health srv in
                 Json.Obj
                   [
                     ("role", Json.Str (Proto.role_to_string h.Proto.role));
                     ("applied_seq", int h.Proto.applied_seq);
                     ("lag", int h.Proto.replication_lag);
                     ("feed_tail", int (repl_tail srv));
                   ] );
               ( "scrub",
                 let h = health srv in
                 Json.Obj
                   [
                     ("last_s", num h.Proto.last_scrub_s);
                     ("quarantined", int h.Proto.quarantined);
                   ] );
             ] );
         ("metrics", Obs.Export.metrics ());
       ])

(* ---- connection loop -------------------------------------------------- *)

let timeout_opt s = if s > 0.0 then Some s else None

let send srv fd resp =
  Proto.write_frame
    ?io_timeout_s:(timeout_opt srv.cfg.io_timeout_s)
    fd
    (Proto.encode_response resp)

let request_shutdown srv =
  Mutex.lock srv.state;
  srv.shutdown_requested <- true;
  Condition.broadcast srv.shutdown_cond;
  Mutex.unlock srv.state

(* Ship the journal from [from_seq] on, then follow the head. Parks on
   the feed condvar; the heartbeat ticker broadcasts it on a period, so
   every wakeup with no new op sends a [Repl_heartbeat] — the standby's
   lease renewal and lag gauge. A cursor behind the feed's tail is
   served by reading the ops back from the WAL, only below the tail
   (the WAL is trusted exactly for what the feed evicted) and only
   along its gap-free prefix: when that prefix ends short of the tail
   the stream ends with the typed out-of-log error, never with a hole.
   Runs on the connection's own thread until the peer drops, a write
   times out, or the server stops. *)
let stream_ops srv fd ~from_seq =
  let r = srv.repl in
  let send_resp resp =
    Proto.write_frame
      ?io_timeout_s:(timeout_opt srv.cfg.io_timeout_s)
      fd
      (Proto.encode_response resp)
  in
  let ship seq head payload =
    send_resp (Proto.Op { seq; head; payload });
    Obs.Counter.incr c_repl_shipped
  in
  let outside seq =
    send_resp
      (Proto.Error
         {
           code = Proto.Bad_request;
           message =
             Printf.sprintf "replication cursor %d outside the log (head %d)"
               seq (repl_head srv);
         })
  in
  let read_back seq ~tail ~head =
    match r.wal with
    | None -> seq
    | Some w ->
        Wal.read_range w ~from:seq ~until:tail (fun i payload ->
            Obs.Counter.incr c_repl_wal_reads;
            ship i head payload)
  in
  let rec go seq =
    Mutex.lock r.rm;
    let f = r.feed in
    if seq >= f.Feed.head && not r.closing then Condition.wait r.rcond r.rm;
    let head = f.Feed.head and tail = f.Feed.tail in
    let payload =
      if seq >= tail && seq < head then Some (Feed.get f seq) else None
    in
    let closing = r.closing in
    Mutex.unlock r.rm;
    if not closing then
      if seq < tail then begin
        let next = read_back seq ~tail ~head in
        if next > seq then go next else outside seq
      end
      else
        match payload with
        | Some payload ->
            ship seq head payload;
            go (seq + 1)
        | None ->
            send_resp (Proto.Repl_heartbeat { head });
            go seq
  in
  if from_seq < 0 || from_seq > repl_head srv then outside from_seq
  else go from_seq

let conn_loop srv conn =
  let fd = conn.fd in
  let rec loop () =
    match
      Proto.read_frame ~max_frame:srv.cfg.max_frame
        ?idle_timeout_s:(timeout_opt srv.cfg.idle_timeout_s)
        ?io_timeout_s:(timeout_opt srv.cfg.io_timeout_s)
        fd
    with
    | Error (Proto.Eof | Proto.Truncated) -> ()
    | Error Proto.Timed_out ->
        (* a stalled reader or a slow-loris writer: best-effort typed
           notice, then reclaim the connection *)
        Obs.Counter.incr c_conn_timeouts;
        (try
           send srv fd
             (Proto.Error
                {
                  code = Proto.Conn_timeout;
                  message = Proto.frame_error_to_string Proto.Timed_out;
                })
         with Proto.Write_timeout | Unix.Unix_error _ | Sys_error _ -> ())
    | Error Proto.Bad_magic ->
        (* the stream is desynchronized: best-effort typed error, then
           the connection has to go *)
        Obs.Counter.incr c_bad_frames;
        send srv fd
          (Proto.Error
             {
               code = Proto.Bad_frame;
               message = Proto.frame_error_to_string Proto.Bad_magic;
             })
    | Error (Proto.Oversized _ as e) ->
        (* header intact, body consumed: still in sync, keep serving *)
        Obs.Counter.incr c_bad_frames;
        send srv fd
          (Proto.Error
             {
               code = Proto.Bad_frame;
               message = Proto.frame_error_to_string e;
             });
        loop ()
    | Ok body -> (
        match Proto.decode_request body with
        | Error (code, message) ->
            Obs.Counter.incr c_bad_frames;
            send srv fd (Proto.Error { code; message });
            loop ()
        | Ok Proto.Ping ->
            send srv fd (Proto.Pong { version = Proto.version });
            loop ()
        | Ok Proto.Stats ->
            send srv fd (Proto.Stats_reply { json = stats_json srv });
            loop ()
        | Ok Proto.Health ->
            send srv fd (Proto.Health_reply (health srv));
            loop ()
        | Ok Proto.Shutdown ->
            send srv fd Proto.Shutting_down;
            request_shutdown srv
        | Ok Proto.Promote ->
            let applied_seq = promote srv in
            send srv fd (Proto.Promoted { applied_seq });
            loop ()
        | Ok (Proto.Replicate { from_seq }) ->
            (* the connection becomes a one-way op stream; when
               stream_ops returns the peer is gone or we are stopping,
               either way the connection is done *)
            stream_ops srv fd ~from_seq
        | Ok (Proto.Solve { inst; opts }) ->
            if not (serving srv) then begin
              send srv fd (standby_refusal srv);
              loop ()
            end
            else begin
              let resp =
                Obs.Span.record ~cat:"server"
                  ~args:[ ("instance", S.describe inst) ]
                  "server.request"
                  (fun () -> handle_solve srv inst opts)
              in
              send srv fd resp;
              loop ()
            end
        | Ok (Proto.Delta { fp; delta; budget }) ->
            if not (serving srv) then begin
              send srv fd (standby_refusal srv);
              loop ()
            end
            else begin
              let resp =
                Obs.Span.record ~cat:"server"
                  ~args:
                    [ ("delta", Ivc_incremental.Delta.describe delta) ]
                  "server.delta"
                  (fun () -> handle_delta srv conn ~fp ?budget delta)
              in
              send srv fd resp;
              loop ()
            end)
  in
  (try loop () with
  | Unix.Unix_error _ | Sys_error _ -> ()
  | Proto.Write_timeout -> Obs.Counter.incr c_conn_timeouts);
  Mutex.lock srv.state;
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  end;
  Obs.Gauge.set g_connections
    (Float.of_int
       (List.length (List.filter (fun (c, _) -> not c.closed) srv.conns)));
  Mutex.unlock srv.state

let accept_loop srv =
  let rec loop () =
    match Unix.accept srv.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        Mutex.lock srv.state;
        let stopping = srv.stopping in
        if not stopping then begin
          Obs.Counter.incr c_conns;
          let conn = { fd; closed = false; base = None } in
          let thread = Thread.create (fun () -> conn_loop srv conn) () in
          (* prune finished connections so a long-lived server's record
             list stays proportional to the open connections *)
          srv.conns <-
            (conn, thread) :: List.filter (fun (c, _) -> not c.closed) srv.conns
        end;
        Mutex.unlock srv.state;
        if stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          ())
        else loop ()
  in
  loop ()

(* ---- lifecycle -------------------------------------------------------- *)

let bind_listen = function
  | Unix_sock path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, 0)
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> 0
      in
      (fd, bound)

(* Heartbeat ticker: broadcasts the feed condvar on a period so
   parked replication streams wake up and send keep-alives even when
   the log is quiet. Cheap enough to always run. *)
let ticker_loop srv =
  let r = srv.repl in
  let period = Float.max 0.05 (Float.min 1.0 (srv.cfg.lease_s /. 4.0)) in
  let rec go () =
    Mutex.lock r.rm;
    let closing = r.closing in
    Mutex.unlock r.rm;
    if not closing then begin
      Thread.delay period;
      Mutex.lock r.rm;
      Condition.broadcast r.rcond;
      Mutex.unlock r.rm;
      go ()
    end
  in
  go ()

let scrub_dirs_of cfg =
  (match cfg.wal_dir with Some d -> [ d ] | None -> [])
  @ (match cfg.autosave_dir with Some d -> [ d ] | None -> [])
  @ cfg.scrub_dirs

let scrub_loop srv =
  let r = srv.repl in
  let dirs = scrub_dirs_of srv.cfg in
  let rec nap remaining =
    if remaining > 0.0 then begin
      Mutex.lock r.rm;
      let closing = r.closing in
      Mutex.unlock r.rm;
      if not closing then begin
        Thread.delay (Float.min 0.2 remaining);
        nap (remaining -. 0.2)
      end
    end
  in
  let rec go () =
    nap srv.cfg.scrub_every_s;
    Mutex.lock r.rm;
    let closing = r.closing in
    Mutex.unlock r.rm;
    if not closing then begin
      (match Scrub.run ~dirs () with
      | report ->
          srv.last_scrub_ns <- Some (Obs.now_ns ());
          srv.quarantined_total <-
            srv.quarantined_total + report.Scrub.quarantined;
          Obs.Counter.incr c_scrub_passes
      | exception _ -> ());
      go ()
    end
  in
  go ()

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: need at least one worker";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Obs.set_enabled true;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    cfg.autosave_dir;
  (* Open (and fail-closed recover) the WAL before binding, replaying
     it as it is read: each op rebuilds cache/repair state, re-certified
     (fail closed: a bad op is skipped, not served), and lands in the
     feed, which mirrors the WAL record-for-record so replica cursors
     survive a primary restart. Nothing holds the whole log. *)
  let cache = Cache.create ~capacity:cfg.cache_capacity in
  let repair = Repair.create ~capacity:cfg.repair_capacity in
  let feed = Feed.create ~bounded:(cfg.wal_dir <> None) in
  let wal =
    Option.map
      (fun dir ->
        fst
          (Wal.open_log ~segment_bytes:cfg.wal_segment_bytes
             ~fsync:cfg.wal_fsync ~dir (fun _seq payload ->
               replay_op ~cache ~repair payload;
               Feed.push feed payload)))
      cfg.wal_dir
  in
  let listen_fd, bound_port = bind_listen cfg.addr in
  let srv =
    {
      cfg;
      listen_fd;
      bound_port;
      pool =
        Taskpar.Service.create ~workers:cfg.workers
          ~capacity:cfg.queue_capacity;
      cache;
      repair;
      repl =
        {
          rm = Mutex.create ();
          rcond = Condition.create ();
          role =
            Atomic.make (if cfg.standby then Proto.Standby else Proto.Primary);
          feed;
          wal;
          applied = feed.Feed.head;
          known_head = 0;
          last_contact_ns = Atomic.make (Obs.now_ns ());
          on_promote = None;
          closing = false;
        };
      t0 = Obs.now_ns ();
      state = Mutex.create ();
      shutdown_cond = Condition.create ();
      stopping = false;
      shutdown_requested = false;
      conns = [];
      acceptor = None;
      aux_threads = [];
      last_scrub_ns = None;
      quarantined_total = 0;
    }
  in
  srv.acceptor <- Some (Thread.create (fun () -> accept_loop srv) ());
  srv.aux_threads <- [ Thread.create (fun () -> ticker_loop srv) () ];
  if cfg.scrub_every_s > 0.0 then
    srv.aux_threads <-
      Thread.create (fun () -> scrub_loop srv) () :: srv.aux_threads;
  srv

let port srv = srv.bound_port

let wait srv =
  Mutex.lock srv.state;
  while not srv.shutdown_requested do
    Condition.wait srv.shutdown_cond srv.state
  done;
  Mutex.unlock srv.state

(* Wake the acceptor out of its blocking [accept] by connecting to
   ourselves; it observes [stopping] and exits. *)
let poke_acceptor cfg bound_port =
  try
    let fd =
      match cfg.addr with
      | Unix_sock path ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
      | Tcp (_, _) ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, bound_port));
          fd
    in
    Unix.close fd
  with Unix.Unix_error _ -> ()

(* Wake replication streams, the ticker and the scrubber so they can
   observe shutdown; streams parked on the condvar exit their loop. *)
let close_repl srv =
  let r = srv.repl in
  Mutex.lock r.rm;
  r.closing <- true;
  Condition.broadcast r.rcond;
  Mutex.unlock r.rm

let stop_common srv ~graceful =
  Mutex.lock srv.state;
  let fresh = not srv.stopping in
  srv.stopping <- true;
  Mutex.unlock srv.state;
  if fresh then begin
    close_repl srv;
    poke_acceptor srv.cfg srv.bound_port;
    Option.iter Thread.join srv.acceptor;
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (match srv.cfg.addr with
    | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    if not graceful then begin
      (* crash-style: tear every connection down both ways NOW, so
         in-flight requests see a reset instead of an answer *)
      Mutex.lock srv.state;
      List.iter
        (fun (c, _) ->
          if not c.closed then
            try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
        srv.conns;
      Mutex.unlock srv.state
    end;
    (* drain: every admitted solve still delivers to its mailbox, so
       the connection threads below all terminate *)
    Taskpar.Service.shutdown srv.pool;
    Mutex.lock srv.state;
    let conns = srv.conns in
    List.iter
      (fun (c, _) ->
        if not c.closed then
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock srv.state;
    List.iter (fun (_, thread) -> Thread.join thread) conns;
    List.iter Thread.join srv.aux_threads;
    (match srv.repl.wal with
    | Some w -> ( try Wal.close w with _ -> ())
    | None -> ());
    Mutex.lock srv.state;
    srv.shutdown_requested <- true;
    Condition.broadcast srv.shutdown_cond;
    Mutex.unlock srv.state
  end

let stop srv = stop_common srv ~graceful:true
let kill srv = stop_common srv ~graceful:false
