(* ivc_serve — the coloring-as-a-service daemon.

   Binds a Unix-domain (or TCP) socket, serves the length-prefixed
   binary protocol of Ivc_server.Proto, and multiplexes concurrent
   solve requests across a shared worker-domain pool with per-request
   deadlines, admission control (with brownout degradation between
   the watermarks), per-connection read/write timeouts, a fingerprint
   solution cache and crash-safe in-flight checkpoints.

   With --supervise the process forks a worker and restarts it on
   crash under the Ivc_server.Supervise policy (jittered exponential
   backoff, crash-loop detection); --autosave-dir makes the restarted
   worker resume in-flight exact solves from their snapshots. Stop it
   with SIGINT/SIGTERM or a client Shutdown request (`ivc-stencil
   client shutdown`); on exit it optionally writes the accumulated
   metrics document. *)

open Cmdliner
module Server = Ivc_server.Server
module Supervise = Ivc_server.Supervise
module Client = Ivc_server.Client
module Replica = Ivc_server.Replica

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv).")

let tcp_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:
          "Listen on 127.0.0.1:$(docv) instead of a Unix socket (0 picks \
           a free port, printed on startup).")

let workers_t =
  Arg.(
    value & opt int 2
    & info [ "workers"; "j" ] ~docv:"P" ~doc:"Solve worker domains.")

let queue_t =
  Arg.(
    value & opt int 32
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Admission-control backlog: requests beyond the $(docv) queued \
           plus one per busy worker are shed with a typed queue-full \
           response.")

let cache_t =
  Arg.(
    value & opt int 256
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:
          "Fingerprint solution-cache entries (0 disables caching, and \
           with it deltas, whose chains start at cached instances).")

let repair_t =
  Arg.(
    value & opt int 16
    & info [ "repair-cap" ] ~docv:"N"
        ~doc:
          "Live incremental-repair states (one per delta chain, keyed by \
           chain fingerprint and seeded from the cache on the chain's \
           first delta; 0 disables the v3 delta path).")

let max_vertices_t =
  Arg.(
    value & opt int 4_000_000
    & info [ "max-vertices" ] ~docv:"N"
        ~doc:"Reject instances larger than $(docv) vertices.")

let default_deadline_t =
  Arg.(
    value & opt float 5.0
    & info [ "default-deadline" ] ~docv:"S"
        ~doc:"Deadline for requests that set none.")

let deadline_cap_t =
  Arg.(
    value & opt float 60.0
    & info [ "deadline-cap" ] ~docv:"S"
        ~doc:"Clamp on client-requested deadlines.")

let autosave_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "autosave-dir" ] ~docv:"DIR"
        ~doc:
          "Checkpoint in-flight solves to $(docv)/<fingerprint>.snap so a \
           killed server resumes them on the next request for the same \
           instance.")

let autosave_every_t =
  Arg.(
    value & opt float 5.0
    & info [ "autosave-every-s" ] ~docv:"S" ~doc:"Checkpoint cadence.")

let idle_timeout_t =
  Arg.(
    value & opt float 300.0
    & info [ "idle-timeout" ] ~docv:"S"
        ~doc:"Close connections idle between requests for $(docv) seconds \
              (0 disables).")

let io_timeout_t =
  Arg.(
    value & opt float 30.0
    & info [ "io-timeout" ] ~docv:"S"
        ~doc:
          "Per-frame read/write deadline once bytes start flowing — the \
           slow-loris defense (0 disables).")

let brownout_low_t =
  Arg.(
    value & opt float 0.75
    & info [ "brownout-low" ] ~docv:"F"
        ~doc:
          "Queue occupancy at which admitted solves run with a shrunk \
           exact budget instead of being shed.")

let brownout_high_t =
  Arg.(
    value & opt float 0.95
    & info [ "brownout-high" ] ~docv:"F"
        ~doc:"Queue occupancy at which admitted solves run heuristics only.")

let brownout_budget_t =
  Arg.(
    value & opt int 500
    & info [ "brownout-budget" ] ~docv:"N"
        ~doc:"Exact-stage node cap under shrunk-budget brownout.")

let replica_of_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-of" ] ~docv:"ENDPOINT"
        ~doc:
          "Boot as a warm standby of the primary at $(docv) (unix:PATH or \
           HOST:PORT): replay its op log, re-certifying every entry, and \
           refuse solves/deltas until a client $(b,promote) or the \
           primary's lease expires.")

let wal_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal-dir" ] ~docv:"DIR"
        ~doc:
          "Journal completed solves and applied deltas to a write-ahead op \
           log in $(docv); replayed (and re-certified) on boot, shipped to \
           replicas.")

let wal_segment_bytes_t =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "wal-segment-bytes" ] ~docv:"N"
        ~doc:"Rotate WAL segments at $(docv) bytes.")

let no_wal_fsync_t =
  Arg.(
    value & flag
    & info [ "no-wal-fsync" ]
        ~doc:
          "Skip the fsync per WAL append (faster, loses the tail on power \
           loss; crash-consistency of the prefix is kept either way).")

let lease_t =
  Arg.(
    value & opt float 10.0
    & info [ "lease" ] ~docv:"S"
        ~doc:
          "Primary lease: a standby starts serving on its own only after \
           $(docv) seconds without contact from its primary (or an \
           explicit promote).")

let scrub_every_t =
  Arg.(
    value & opt float 0.0
    & info [ "scrub-every" ] ~docv:"S"
        ~doc:
          "Background integrity scrub period over the WAL and autosave \
           directories: verify checksums, quarantine corrupt files, \
           reinstall salvageable WAL prefixes (0 disables).")

let scrub_dir_t =
  Arg.(
    value & opt_all string []
    & info [ "scrub-dir" ] ~docv:"DIR"
        ~doc:"Extra directory for the scrubber (repeatable).")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the final metrics JSON document to $(docv) on exit.")

let supervise_t =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Fork the server as a worker process and restart it on crash \
           with jittered exponential backoff and crash-loop detection. \
           Combined with --autosave-dir, in-flight exact solves resume \
           across restarts.")

let pid_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "pid-file" ] ~docv:"FILE"
        ~doc:
          "Write the serving process's pid to $(docv) (under --supervise: \
           the current worker's pid, rewritten on every restart).")

let min_uptime_t =
  Arg.(
    value & opt float 5.0
    & info [ "min-uptime" ] ~docv:"S"
        ~doc:
          "A worker crashing within $(docv) seconds of starting counts \
           toward the crash loop.")

let max_rapid_t =
  Arg.(
    value & opt int 5
    & info [ "max-rapid-crashes" ] ~docv:"N"
        ~doc:
          "Give up after $(docv) consecutive rapid crashes instead of \
           restarting a crash loop.")

let backoff_seed_t =
  Arg.(
    value & opt int 0
    & info [ "backoff-seed" ] ~docv:"N"
        ~doc:"Seed for deterministic restart-backoff jitter.")

let write_pid path pid =
  try
    let oc = open_out path in
    Printf.fprintf oc "%d\n" pid;
    close_out oc
  with Sys_error m -> Format.eprintf "ivc-serve: cannot write %s: %s@." path m

let run_server cfg upstream metrics pid_file =
  Option.iter (fun p -> write_pid p (Unix.getpid ())) pid_file;
  let srv = Server.start cfg in
  let where =
    match cfg.Server.addr with
    | Server.Unix_sock path -> path
    | Server.Tcp (host, _) -> Printf.sprintf "%s:%d" host (Server.port srv)
  in
  Format.printf "ivc-serve: listening on %s (workers=%d, queue=%d, cache=%d)@."
    where cfg.Server.workers cfg.Server.queue_capacity
    cfg.Server.cache_capacity;
  let replica =
    Option.map
      (fun up ->
        Format.printf "ivc-serve: standby replicating from %s (lease %.1fs)@."
          (Server.addr_to_string up) cfg.Server.lease_s;
        Replica.start srv ~upstream:up)
      upstream
  in
  (* flush so a supervisor tailing the log sees readiness immediately *)
  Format.print_flush ();
  let on_signal _ =
    (* minimal async-signal work: flag the waiter, let main unwind *)
    ignore (Thread.create (fun () -> Server.stop srv) ())
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  Server.wait srv;
  Option.iter Replica.stop replica;
  Server.stop srv;
  Option.iter
    (fun path ->
      Ivc_obs.Export.write_metrics path;
      Format.printf "ivc-serve: wrote metrics %s@." path)
    metrics;
  Format.printf "ivc-serve: stopped@."

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

(* The supervisor owns no sockets and no domains: it forks, waits,
   forwards termination signals to the worker, and applies the pure
   Supervise policy to each exit. *)
let supervise_loop scfg cfg upstream metrics pid_file =
  let worker = ref None in
  let stop_requested = ref false in
  let forward signal =
    match !worker with
    | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let on_signal s =
    stop_requested := true;
    forward s
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  let rec loop st =
    let t0 = Ivc_obs.now_ns () in
    match Unix.fork () with
    | 0 ->
        (* the worker installs its own handlers in run_server *)
        (try Sys.set_signal Sys.sigint Sys.Signal_default
         with Invalid_argument _ | Sys_error _ -> ());
        (try Sys.set_signal Sys.sigterm Sys.Signal_default
         with Invalid_argument _ | Sys_error _ -> ());
        (try run_server cfg upstream metrics pid_file
         with e ->
           Format.eprintf "ivc-serve: worker failed: %s@."
             (Printexc.to_string e);
           exit 2);
        exit 0
    | pid -> (
        worker := Some pid;
        Format.printf "ivc-serve: supervising worker pid=%d@." pid;
        Format.print_flush ();
        let _, status = waitpid_eintr pid in
        worker := None;
        let uptime_s = Ivc_obs.elapsed_s ~since:t0 in
        if !stop_requested then
          Format.printf "ivc-serve: worker stopped (%s); supervisor exiting@."
            (Supervise.status_to_string status)
        else
          match Supervise.on_exit scfg st ~uptime_s ~status with
          | _, Supervise.Stop_clean ->
              Format.printf
                "ivc-serve: worker exited cleanly (%s); supervisor exiting@."
                (Supervise.status_to_string status)
          | _, Supervise.Give_up reason ->
              Format.eprintf "ivc-serve: giving up: %s@." reason;
              exit 1
          | st, Supervise.Restart_after delay_s ->
              Format.printf
                "ivc-serve: worker %s after %.1fs; restarting in %.2fs \
                 (restart %d)@."
                (Supervise.status_to_string status)
                uptime_s delay_s st.Supervise.restarts;
              Format.print_flush ();
              Unix.sleepf delay_s;
              if !stop_requested then
                Format.printf "ivc-serve: stop requested; supervisor exiting@."
              else loop st)
  in
  loop Supervise.initial

let run socket tcp workers queue_cap cache_cap repair_cap max_vertices
    default_deadline deadline_cap autosave_dir autosave_every idle_timeout
    io_timeout brownout_low brownout_high brownout_budget replica_of wal_dir
    wal_segment_bytes no_wal_fsync lease scrub_every scrub_dirs metrics
    supervise pid_file min_uptime max_rapid backoff_seed =
  let addr =
    match (socket, tcp) with
    | Some path, None -> Server.Unix_sock path
    | None, Some port -> Server.Tcp ("127.0.0.1", port)
    | None, None -> Server.Unix_sock "ivc_serve.sock"
    | Some _, Some _ -> failwith "choose one of --socket and --tcp"
  in
  let upstream =
    Option.map
      (fun s ->
        match Client.addr_of_string s with
        | Ok a -> a
        | Error m -> failwith ("--replica-of: " ^ m))
      replica_of
  in
  let cfg =
    {
      (Server.default_config addr) with
      Server.workers;
      queue_capacity = queue_cap;
      cache_capacity = cache_cap;
      repair_capacity = repair_cap;
      max_vertices;
      default_deadline_s = default_deadline;
      deadline_cap_s = deadline_cap;
      autosave_dir;
      autosave_every_s = autosave_every;
      idle_timeout_s = idle_timeout;
      io_timeout_s = io_timeout;
      brownout_low;
      brownout_high;
      brownout_budget;
      standby = Option.is_some upstream;
      wal_dir;
      wal_segment_bytes;
      wal_fsync = not no_wal_fsync;
      lease_s = lease;
      scrub_every_s = scrub_every;
      scrub_dirs;
    }
  in
  if supervise then
    let scfg =
      {
        Supervise.default_config with
        Supervise.seed = backoff_seed;
        min_uptime_s = min_uptime;
        max_rapid_crashes = max_rapid;
      }
    in
    supervise_loop scfg cfg upstream metrics pid_file
  else run_server cfg upstream metrics pid_file

let cmd =
  Cmd.v
    (Cmd.info "ivc-serve" ~version:"1.0.0"
       ~doc:"Multi-tenant interval-stencil-coloring solve daemon")
    Term.(
      const run $ socket_t $ tcp_t $ workers_t $ queue_t $ cache_t $ repair_t
      $ max_vertices_t $ default_deadline_t $ deadline_cap_t $ autosave_dir_t
      $ autosave_every_t $ idle_timeout_t $ io_timeout_t $ brownout_low_t
      $ brownout_high_t $ brownout_budget_t $ replica_of_t $ wal_dir_t
      $ wal_segment_bytes_t $ no_wal_fsync_t $ lease_t $ scrub_every_t
      $ scrub_dir_t $ metrics_t $ supervise_t $ pid_file_t $ min_uptime_t
      $ max_rapid_t $ backoff_seed_t)

let () = exit (Cmd.eval cmd)
