(* serve: an open-loop Poisson request stream against the shipped
   daemon in its own process: cache hits from a hot set, never-seen
   perturbed catalog instances, solves journaled to an fsynced WAL. *)

module S = Ivc_grid.Stencil
module Proto = Ivc_server.Proto
module Client = Ivc_server.Client
module Cert = Ivc_resilient.Cert
module Stats = Perfbench.Stats
module Inputs = Perfbench.Inputs
module R = Result_doc
open Proc

(* Offered load: about a quarter of the daemon's closed-loop capacity on
   this mix with two connections (950-1000 req/s on a 2-core x86-64 VM,
   measured by making every request of the schedule due at once; see
   README.md). At half capacity the median latency of runs of one seed
   ranged over 1.1-2.2 ms. The request count is fixed by the rate and
   --seconds, so every run of a given length offers the same work. *)
let rate = 240.0

let miss_frac = 0.3
let hot_size = 64
let senders = 2

(* Seconds of the same traffic sent before the measured window, so the
   daemon's heap, cache and repair table reach their steady state: most
   slow episodes of early runs fell in their first five seconds, and a
   long-running daemon's clients never see them. *)
let warmup_s = 5.0

(* The generator is lagging, and the run invalid, when its own p99
   delay from "due and a connection free" to "sent" exceeds this. *)
let late_bound_ms = 20.0

type slot = {
  mutable reply : Proto.solution option;
  mutable error : string option;
  mutable free : int64;  (** a connection took the request *)
  mutable sent : int64;
  mutable done_ : int64;
}

let inst_of (inp : Inputs.serve) = function
  | Inputs.Hot i -> inp.Inputs.hot.(i)
  | Inputs.Miss i -> inp.Inputs.misses.(i)

let ms ns = Int64.to_float ns /. 1e6

(* Solve [insts] over [conns], connection [k] taking every [k]-th
   instance (a fixed split, so the wall time does not depend on which
   connection happened to pick up a heavy instance); returns the
   verified solutions in order and the wall time. *)
let solve_all ?(opts = serving_opts) r conns insts =
  let out = Array.make (Array.length insts) None in
  let m = List.length conns in
  let worker (k, c) =
    Array.iteri
      (fun i inst ->
        if i mod m = k then
          match Client.solve ~timeout_s:120.0 c ~opts inst with
          | Ok (Proto.Solution s) -> (
              match Client.verify_solution inst s with
              | Ok s -> out.(i) <- Some s
              | Error e -> R.wrong r "set-up solve: %s" (Client.error_to_string e))
          | Ok _ -> R.wrong r "set-up solve %d: not a solution" i
          | Error e -> R.wrong r "set-up solve: %s" (Client.error_to_string e))
      insts
  in
  let (), dt =
    time (fun () ->
        List.iter Thread.join
          (List.mapi (fun k c -> Thread.create worker (k, c)) conns))
  in
  (out, dt)

(* Send the whole schedule open loop: whichever connection is free takes
   the next request, waits for its due time, and records when it was
   taken, sent and answered. One domain per connection, so a sender
   never waits on the other's runtime lock to notice its reply or its
   due time. *)
let drive ~addr ~conns ~due ~insts slots =
  let next = Atomic.make 0 in
  let sender c =
    let c = ref c in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length slots then begin
        let slot = slots.(i) in
        slot.free <- now ();
        let wait = Int64.sub (due i) slot.free in
        if wait > 0L then Unix.sleepf (Int64.to_float wait /. 1e9);
        slot.sent <- now ();
        let res =
          span ~req:i "Client.solve" (fun () ->
              Client.solve ~timeout_s:120.0 !c ~opts:serving_opts insts.(i))
        in
        slot.done_ <- now ();
        (match res with
        | Ok (Proto.Solution s) -> slot.reply <- Some s
        | Ok (Proto.Shed { code; _ }) ->
            slot.error <- Some ("shed " ^ Proto.shed_code_to_string code)
        | Ok (Proto.Error { code; message }) ->
            slot.error <- Some (Proto.error_code_to_string code ^ ": " ^ message)
        | Ok _ -> slot.error <- Some "unexpected response"
        | Error e ->
            (* the connection is dead after a transport error *)
            slot.error <- Some (Client.error_to_string e);
            Client.close !c;
            c := connect_exn addr);
        go ()
      end
    in
    go ();
    Client.close !c
  in
  List.iter Domain.join (List.map (fun c -> Domain.spawn (fun () -> sender c)) conns)

let run (ctx : ctx) =
  let r = R.create () in
  let total = int_of_float (Float.round (rate *. (warmup_s +. ctx.seconds))) in
  let (inp, lbs), gen_s =
    setup_median (fun () ->
        let inp =
          Inputs.serve_inputs ~seed:ctx.seed ~entries:(Inputs.slice_entries ()) ~rate
            ~count:total ~miss_frac ~hot_size
        in
        let lbs =
          Array.map
            (fun q -> Ivc.Bounds.clique_lb (inst_of inp q.Inputs.target))
            inp.Inputs.schedule
        in
        (inp, lbs))
  in
  let sched = inp.Inputs.schedule in
  let insts = Array.map (fun q -> inst_of inp q.Inputs.target) sched in
  (* requests due in the first [warmup_s] seconds only warm up *)
  let warm = Array.fold_left (fun k q -> if q.Inputs.due_s < warmup_s then k + 1 else k) 0 sched in
  let count = total - warm in
  log "serve: %d requests at %.0f/s after %d warm-up, %d misses, inputs digest %s"
    count rate warm (Array.length inp.Inputs.misses) (Inputs.serve_digest inp);
  (* daemon start-up, the median of three *)
  let spawn_s =
    Stats.median
      (Array.init 3 (fun _ ->
           let d, dt =
             time (fun () -> spawn_daemon ~bin:ctx.serve_bin ~work:ctx.work ~tag:"serve-probe")
           in
           stop_daemon d;
           dt))
  in
  let d = spawn_daemon ~bin:ctx.serve_bin ~work:ctx.work ~tag:"serve" in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let conns = List.init senders (fun _ -> connect_exn d.addr) in
  (* solve_s: the hot set solved through the daemon with the cache
     bypassed, the median of three; then solved once more into the
     cache and the journal *)
  let solve_s =
    Stats.median
      (Array.init 3 (fun _ ->
           snd (solve_all ~opts:{ serving_opts with Proto.use_cache = false } r conns inp.Inputs.hot)))
  in
  R.set r "solve_s" solve_s;
  let hot_solutions, hot_s = solve_all r conns inp.Inputs.hot in
  let before = stats d in
  let slots = Array.map (fun _ -> { reply = None; error = None; free = 0L; sent = 0L; done_ = 0L }) sched in
  let t0 = Int64.add (now ()) 20_000_000L in
  let due i = Int64.add t0 (Int64.of_float (sched.(i).Inputs.due_s *. 1e9)) in
  drive ~addr:d.addr ~conns ~due ~insts slots;
  let after = stats d in
  let rss = daemon_rss_mb d in
  R.set r "setup_s" (gen_s +. spawn_s +. (3.0 *. solve_s) +. hot_s +. warmup_s);
  let measured f = Array.init count (fun j -> f (warm + j) slots.(warm + j)) in
  let t_start = Int64.add t0 (Int64.of_float (warmup_s *. 1e9)) in
  let t_last = Array.fold_left (fun acc s -> max acc s.done_) t_start slots in
  let window_s = ms (Int64.sub t_last t_start) /. 1e3 in
  (* the load generator's own account *)
  let late = measured (fun i s -> ms (Int64.sub s.sent (max (due i) s.free))) in
  let wait = measured (fun i s -> Float.max 0.0 (ms (Int64.sub s.free (due i)))) in
  let last_due = due (total - 1) in
  let backlog = Array.fold_left (fun k s -> if s.sent > last_due then k + 1 else k) 0 slots in
  let late_p99 = (Stats.percentile late 0.99).Stats.value in
  log "serve: loadgen late p99 %.3f ms, wait p99 %.3f ms, backlog at end %d" late_p99
    (Stats.percentile wait 0.99).Stats.value backlog;
  if late_p99 > late_bound_ms then
    R.wrong r "invalid run: generator lag p99 %.2f ms exceeds %.0f ms" late_p99 late_bound_ms;
  (* verification, after the window so it never delays a due request *)
  let certified = ref 0 and vertices = ref 0 and proven = ref 0 and busy_ms = ref 0.0 in
  let ratios = Stats.Samples.create () and verify_t = Stats.Samples.create () in
  let latencies_s =
    Array.mapi
      (fun i s ->
        let measured = i >= warm in
        if measured then r.R.attempted <- r.R.attempted + 1;
        let failed why =
          if measured then r.R.failed <- r.R.failed + 1
          else R.wrong r "warm-up request %d failed: %s" i why;
          if r.R.failed <= 5 then log "serve: request %d failed: %s" i why;
          Stats.failed
        in
        match (s.reply, s.error) with
        | Some sol, _ -> (
            let v, dt = time (fun () -> Client.verify_solution insts.(i) sol) in
            Stats.Samples.add verify_t dt;
            match v with
            | Ok sol ->
                if measured then begin
                  incr certified;
                  vertices := !vertices + S.n_vertices insts.(i);
                  busy_ms := !busy_ms +. ms (Int64.sub s.done_ s.sent);
                  if sol.Proto.proven_optimal then incr proven;
                  if lbs.(i) > 0 then
                    Stats.Samples.add ratios
                      (Float.of_int sol.Proto.maxcolor /. Float.of_int lbs.(i))
                end;
                ms (Int64.sub s.done_ (due i)) /. 1e3
            | Error e ->
                R.wrong r "request %d: %s" i (Client.error_to_string e);
                failed "verification")
        | None, Some why -> failed why
        | None, None -> failed "no reply")
      slots
  in
  R.latency_metrics r ~latencies_s:(Array.sub latencies_s warm count);
  R.set r "maxcolor_over_lb" (Stats.mean (Stats.Samples.to_array ratios));
  (* vertex throughput of the busy connections: send to reply, not the
     generator's queueing *)
  R.set r "mvps" (Float.of_int !vertices /. 1e3 /. !busy_ms);
  R.set r "goodput_rps" (Float.of_int !certified /. window_s);
  R.finish_counts r ~certified:!certified;
  R.set r "peak_rss_mb" rss;
  if ctx.traced then begin
    (* the Stats window covers the warm-up too: same traffic *)
    let dc = d_counter before after in
    let requests = dc "server.requests" in
    R.set r "server.request_mean_ms" (d_span_mean_ms before after "server.request");
    R.set r "service.job_mean_ms" (d_span_mean_ms before after "service.job");
    (* serve is not a gated workload, so figures only it produces are
       notes on stderr, not declared metrics *)
    log "serve: cache hit ratio %.3f, repair seeds per request %.3f"
      (Stats.ratio (dc "server.cache_hits") requests)
      (Stats.ratio (dc "server.repair_seeded") requests);
    R.set r "server.obs_events" (obs_events after);
    R.set r "wal.records" (dc "wal.records_appended");
    R.set r "resilient.fallback_s" (d_span_total_s before after "resilient.stage_fallback");
    R.set r "resilient.heuristics_s" (d_span_total_s before after "resilient.stage_heuristics");
    R.set r "resilient.improve_s" (d_span_total_s before after "resilient.stage_improve");
    R.set r "exact.solve_s" (d_span_total_s before after "exact.solve");
    let revs = dc "exact.cp_revisions" and nodes = dc "exact.cp_nodes" in
    R.set r "exact.cp_revisions" revs;
    R.set r "exact.cp_nodes" nodes;
    R.set r "exact.bb_nodes" (dc "exact.bb_nodes");
    R.set r "exact.revisions_per_cp_node" (Stats.ratio revs nodes);
    R.set r "resilient.proven_optimal_frac"
      (Float.of_int !proven /. Float.of_int (max 1 !certified));
    R.set r "client.verify_ms" (1e3 *. Stats.mean (Stats.Samples.to_array verify_t));
    let answered = List.filter (fun i -> slots.(i).reply <> None) (List.init total Fun.id) in
    let roundtrip =
      Stats.mean
        (Array.of_list
           (List.map (fun i -> ms (Int64.sub slots.(i).done_ slots.(i).sent)) answered))
    in
    R.set r "client.roundtrip_ms" roundtrip;
    (* replay the wire, the journal, the engine seeding and the
       certificate through the layer functions in this process *)
    let replies = List.map (fun i -> (insts.(i), Option.get slots.(i).reply)) answered in
    let wire =
      Replay.wire
        (List.map (fun (inst, s) -> (Proto.Solve { inst; opts = serving_opts }, s)) replies)
    in
    Replay.set_wire r wire;
    R.set r "client.unaccounted_ms"
      (roundtrip -. R.get r "server.request_mean_ms" -. Replay.wire_total_ms wire);
    R.set r "server.fingerprint_ms"
      (Replay.mean_ms
         (List.map (fun (inst, _) () -> ignore (Ivc_persist.Snapshot.fingerprint inst)) replies));
    let solved =
      List.filter_map Fun.id
        (Array.to_list
           (Array.mapi (fun i s -> Option.map (fun s -> (inp.Inputs.hot.(i), s)) s) hot_solutions))
    in
    let misses = List.filter (fun (_, s) -> not s.Proto.cache_hit) replies in
    Replay.wal r ~dir:(Filename.concat ctx.work "replay-wal")
      (List.map (fun (inst, s) -> Replay.solved_op inst s) (solved @ misses));
    R.set r "incremental.create_ms"
      (Replay.mean_ms
         (List.map (fun (inst, _) () -> ignore (Ivc_incremental.Engine.create inst)) misses));
    R.set r "resilient.cert_s"
      (Stats.sum
         (Array.of_list
            (List.map
               (fun (inst, s) -> snd (time (fun () -> ignore (Cert.check inst s.Proto.starts))))
               replies)))
  end;
  (r, [ ("p50_ms", R.get r "p50_ms") ])
