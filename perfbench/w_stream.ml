(* stream: two connections each drive a seeded chain of STKDE window
   slides against the daemon's repair table, closed loop. The senders
   do no checking beyond the chain key: every reply is checked after
   the window. *)

module S = Ivc_grid.Stencil
module Proto = Ivc_server.Proto
module Client = Ivc_server.Client
module Delta = Ivc_incremental.Delta
module Engine = Ivc_incremental.Engine
module Cert = Ivc_resilient.Cert
module Stats = Perfbench.Stats
module Inputs = Perfbench.Inputs
module R = Result_doc
open Proc

(* Chains are generated long enough that no connection runs dry
   within --seconds: on a 2-core x86-64 VM the faster chain sends up to
   180 deltas a second, so this leaves room for a machine twice as fast.
   A longer chain only extends a shorter one of the same seed. *)
let per_second = 400

(* After the window a local engine re-derives every reply. Every
   [check_every]-th delta, and the last, is also checked without the
   engine: a from-scratch canonical sweep of the client's own mirror,
   its certificate and its clique bound. *)
let check_every = 50

(* In the traced run every [sample_every]-th reply is kept whole for
   the codec and verification replays. *)
let sample_every = 8

type reply = { starts_fp : int; maxcolor : int; provenance : string }

type chain = {
  inst : S.t;  (** the grid as first solved *)
  deltas : Delta.t array;
  mutable sent : int;  (** prefix of [deltas] sent in the window *)
  lat : float array;  (** seconds per sent delta; [Stats.failed] if it failed *)
  replies : reply option array;
  mutable sampled : (int * Proto.request * Proto.solution) list;
}

let resolved p = p = Engine.provenance_to_string Engine.Resolved

let run (ctx : ctx) =
  let r = R.create () in
  let len = max 100 (per_second * int_of_float (Float.ceil ctx.seconds)) in
  let chains, gen_s =
    setup_median (fun () ->
        let cloud = Inputs.stream_cloud () in
        Array.mapi
          (fun k dim ->
            let inst, deltas =
              Inputs.stkde_chain ~seed:ctx.seed ~stream:(20 + k) cloud
                (Inputs.stream_cells cloud dim) ~len
            in
            {
              inst;
              deltas;
              sent = 0;
              lat = Array.make len Stats.failed;
              replies = Array.make len None;
              sampled = [];
            })
          [| `D2; `D3 |])
  in
  log "stream: chains of %d deltas on %s and %s, inputs digest %s" len
    (S.describe chains.(0).inst) (S.describe chains.(1).inst)
    (Inputs.chain_digest
       (Array.map (fun c -> c.inst) chains)
       (Array.map (fun c -> c.deltas) chains));
  let spawn_s =
    Stats.median
      (Array.init 3 (fun _ ->
           let d, dt = time (fun () -> spawn_daemon ~bin:ctx.serve_bin ~work:ctx.work ~tag:"stream-probe") in
           stop_daemon d;
           dt))
  in
  let d = spawn_daemon ~bin:ctx.serve_bin ~work:ctx.work ~tag:"stream" in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let conns = Array.map (fun _ -> connect_exn d.addr) chains in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) @@ fun () ->
  (* the Stats window of the traced run covers the seed solves too, so
     the solve request path is measured *)
  let before = stats d in
  (* set-up: each connection solves its own grid, both at once *)
  let seeds = Array.make 2 None in
  let seed_solves opts =
    snd
      (time (fun () ->
           let one k =
             let c = chains.(k) in
             match Client.solve ~timeout_s:120.0 conns.(k) ~opts c.inst with
             | Ok (Proto.Solution s) -> (
                 match Client.verify_solution c.inst s with
                 | Ok s -> seeds.(k) <- Some s
                 | Error e -> R.wrong r "seed solve: %s" (Client.error_to_string e))
             | Ok _ -> R.wrong r "seed solve: not a solution"
             | Error e -> R.wrong r "seed solve: %s" (Client.error_to_string e)
           in
           List.iter Thread.join (List.init 2 (fun k -> Thread.create one k))))
  in
  (* solve_s: the median of three rounds with the cache bypassed; the
     fourth round caches the colorings and seeds the repair table *)
  let solve_s =
    Stats.median
      (Array.init 3 (fun _ -> seed_solves { serving_opts with Proto.use_cache = false }))
  in
  let cached_s = seed_solves serving_opts in
  if Array.exists Option.is_none seeds then failwith "stream: seed solves failed";
  R.set r "solve_s" solve_s;
  R.set r "setup_s" (gen_s +. spawn_s +. (3.0 *. solve_s) +. cached_s);
  let t0 = now () in
  let deadline = Int64.add t0 (Int64.of_float (ctx.seconds *. 1e9)) in
  (* the sender: send, check the advanced chain key, keep a fingerprint
     of the reply. No delta is expected to fail in this closed chain, so
     any error makes the run incorrect and ends the chain. *)
  let drive k =
    let c = chains.(k) and conn = conns.(k) in
    let fp = ref (Option.get seeds.(k)).Proto.fingerprint in
    let fail i fmt =
      Printf.ksprintf
        (fun m ->
          R.wrong r "delta %d on chain %d: %s" i k m;
          c.lat.(i) <- Stats.failed)
        fmt
    in
    let rec go i =
      if i < len && now () < deadline then begin
        let delta = c.deltas.(i) in
        let res, dt =
          span ~req:((k * 1_000_000) + i) "Client.delta" (fun () ->
              time (fun () -> Client.delta ~timeout_s:60.0 conn ~fp:!fp delta))
        in
        c.sent <- i + 1;
        c.lat.(i) <- dt;
        let ok =
          match res with
          | Ok (Proto.Solution s) when s.Proto.fingerprint = Delta.chain_fp !fp delta ->
              c.replies.(i) <-
                Some
                  {
                    starts_fp = starts_fp s.Proto.starts;
                    maxcolor = s.Proto.maxcolor;
                    provenance = s.Proto.provenance;
                  };
              if ctx.traced && i mod sample_every = 0 then
                c.sampled <- (i, Proto.Delta { fp = !fp; delta; budget = None }, s) :: c.sampled;
              fp := s.Proto.fingerprint;
              true
          | Ok (Proto.Solution _) ->
              fail i "reply carries a wrong chain key";
              false
          | Ok (Proto.Error { code; message }) ->
              fail i "%s: %s" (Proto.error_code_to_string code) message;
              false
          | Ok _ ->
              fail i "unexpected response";
              false
          | Error e ->
              fail i "%s" (Client.error_to_string e);
              false
        in
        if ok then go (i + 1)
      end
    in
    go 0
  in
  (* one domain per connection, so neither sender waits on the other's
     runtime lock *)
  List.iter Domain.join (List.init 2 (fun k -> Domain.spawn (fun () -> drive k)));
  let window_s = since t0 in
  let after = stats d in
  let rss = daemon_rss_mb d in
  log "stream: %d + %d deltas in %.2f s" chains.(0).sent chains.(1).sent window_s;
  (* the checks: a local engine with the daemon's default budget
     replays each chain; every reply must be its coloring (so the
     canonical one), with its maxcolor and provenance *)
  let ratios = Stats.Samples.create () and verify_t = Stats.Samples.create () in
  let create_ms = Stats.Samples.create () and apply_us = Stats.Samples.create () in
  let repaired = ref 0 and front = ref 0 in
  let certified = ref 0 and vertices = ref 0 in
  let t_check = now () in
  Array.iteri
    (fun k c ->
      r.R.attempted <- r.R.attempted + c.sent;
      let e, dt = time (fun () -> Engine.create c.inst) in
      Stats.Samples.add create_ms (dt *. 1e3);
      (* the client's own mirror of the weights *)
      let w = Array.copy c.inst.S.w and fp = ref (Option.get seeds.(k)).Proto.fingerprint in
      let mirror () = Inputs.with_weights c.inst (Array.copy w) in
      let sampled = Hashtbl.create 64 in
      List.iter (fun (i, _, s) -> Hashtbl.replace sampled i s) c.sampled;
      let rec check i =
        if i < c.sent then
          match c.replies.(i) with
          | None -> r.R.failed <- r.R.failed + 1
          | Some got -> (
              let delta = c.deltas.(i) in
              let o, dt =
                span ~req:i "replay.Engine.apply" (fun () -> time (fun () -> Engine.apply e delta))
              in
              Stats.Samples.add apply_us (dt *. 1e6);
              match o with
              | Error err ->
                  r.R.failed <- r.R.failed + 1;
                  R.wrong r "chain %d engine replay: %s" k (Engine.error_to_string err)
              | Ok o ->
                  (match delta with
                  | Delta.Bump { v; dw } -> w.(v) <- w.(v) + dw
                  | Delta.Batch ops -> Array.iter (fun (v, dw) -> w.(v) <- w.(v) + dw) ops
                  | Delta.Extend _ -> invalid_arg "stream chains never extend");
                  let expect_fp = Delta.chain_fp !fp delta in
                  fp := expect_fp;
                  (match o.Engine.provenance with
                  | Engine.Repaired { front_cells; _ } ->
                      incr repaired;
                      front := !front + front_cells
                  | Engine.Resolved -> ());
                  let starts = Engine.starts_view e in
                  let ok =
                    got.starts_fp = starts_fp starts
                    && got.maxcolor = o.Engine.maxcolor
                    && got.provenance = Engine.provenance_to_string o.Engine.provenance
                  in
                  let ok =
                    ok
                    && (i mod check_every <> 0 && i <> c.sent - 1
                       ||
                       let m = mirror () in
                       match Cert.check m starts with
                       | Ok mc when mc = o.Engine.maxcolor && Engine.resolve m = starts ->
                           let lb = Ivc.Bounds.clique_lb m in
                           if lb > 0 then
                             Stats.Samples.add ratios (Float.of_int mc /. Float.of_int lb);
                           true
                       | _ -> false)
                  in
                  (match Hashtbl.find_opt sampled i with
                  | Some s -> (
                      let m = mirror () in
                      let v, vt = time (fun () -> Client.verify_delta ~expect_fp m s) in
                      Stats.Samples.add verify_t vt;
                      match v with
                      | Ok _ -> ()
                      | Error e ->
                          R.wrong r "delta %d on chain %d: %s" i k (Client.error_to_string e))
                  | None -> ());
                  if ok then begin
                    incr certified;
                    vertices := !vertices + S.n_vertices c.inst
                  end
                  else begin
                    R.wrong r "delta %d on chain %d: reply is not the canonical coloring" i k;
                    r.R.failed <- r.R.failed + 1;
                    c.lat.(i) <- Stats.failed
                  end;
                  check (i + 1))
      in
      check 0)
    chains;
  log "stream: checks took %.2f s" (since t_check);
  let lat_of pred =
    Array.concat
      (Array.to_list
         (Array.map
            (fun c ->
              Array.of_list
                (List.filter_map
                   (fun i ->
                     match c.replies.(i) with
                     | Some g when pred g -> Some c.lat.(i)
                     | _ -> None)
                   (List.init c.sent Fun.id)))
            chains))
  in
  let latencies_s = Array.concat (Array.to_list (Array.map (fun c -> Array.sub c.lat 0 c.sent) chains)) in
  R.latency_metrics r ~latencies_s;
  (* the two service paths apart: local repair and the full-sweep
     fallback the jumps force *)
  let p50_ms a = if a = [||] then 0.0 else 1e3 *. Stats.median a in
  let fallback = lat_of (fun g -> resolved g.provenance) in
  let repair = lat_of (fun g -> not (resolved g.provenance)) in
  log "stream: repaired p50 %.3f ms over %d, resolved p50 %.3f ms over %d" (p50_ms repair)
    (Array.length repair) (p50_ms fallback) (Array.length fallback);
  R.set r "maxcolor_over_lb" (Stats.mean (Stats.Samples.to_array ratios));
  R.set r "mvps"
    (Float.of_int !vertices /. 1e6
    /. Stats.sum (Array.of_list (List.filter Float.is_finite (Array.to_list latencies_s))));
  R.set r "goodput_rps" (Float.of_int !certified /. window_s);
  R.finish_counts r ~certified:!certified;
  R.set r "peak_rss_mb" rss;
  if ctx.traced then begin
    let dc = d_counter before after in
    let deltas = dc "server.deltas" in
    R.set r "client.repaired_p50_ms" (p50_ms repair);
    R.set r "client.resolved_p50_ms" (p50_ms fallback);
    R.set r "server.delta_mean_ms" (d_span_mean_ms before after "server.delta");
    R.set r "server.request_mean_ms" (d_span_mean_ms before after "server.request");
    R.set r "service.job_mean_ms" (d_span_mean_ms before after "service.job");
    R.set r "server.delta_repaired_ratio" (Stats.ratio (dc "server.delta_repaired") deltas);
    R.set r "server.obs_events" (obs_events after);
    R.set r "wal.records" (dc "wal.records_appended");
    R.set r "client.verify_ms" (1e3 *. Stats.mean (Stats.Samples.to_array verify_t));
    let ok_lat = Array.of_list (List.filter Float.is_finite (Array.to_list latencies_s)) in
    R.set r "client.roundtrip_ms" (1e3 *. Stats.mean ok_lat);
    let pairs =
      List.concat_map
        (fun c -> List.rev_map (fun (_, q, s) -> (q, s)) c.sampled)
        (Array.to_list chains)
    in
    let wire = Replay.wire pairs in
    Replay.set_wire r wire;
    R.set r "client.unaccounted_ms"
      (R.get r "client.roundtrip_ms" -. R.get r "server.delta_mean_ms" -. Replay.wire_total_ms wire);
    (* the journal: the seed solves, then every delta sent *)
    let ops =
      List.concat
        (List.mapi
           (fun k c ->
             let s = Option.get seeds.(k) in
             let fp = ref s.Proto.fingerprint in
             Replay.solved_op c.inst s
             :: List.map
                  (fun delta ->
                    let op = Proto.encode_op (Proto.Op_delta { fp = !fp; delta }) in
                    fp := Delta.chain_fp !fp delta;
                    op)
                  (Array.to_list (Array.sub c.deltas 0 c.sent)))
           (Array.to_list chains))
    in
    Replay.wal r ~dir:(Filename.concat ctx.work "replay-wal") ops;
    (* the engine, from the checks' replay *)
    let applies = Stats.Samples.to_array apply_us in
    R.set r "incremental.create_ms" (Stats.mean (Stats.Samples.to_array create_ms));
    if applies <> [||] then begin
      R.set r "incremental.apply_p50_us" (Stats.percentile applies 0.5).Stats.value;
      R.set r "incremental.apply_p99_us" (Stats.percentile applies 0.99).Stats.value
    end;
    R.set r "incremental.repaired_ratio"
      (Stats.ratio (Float.of_int !repaired) (Float.of_int (Array.length applies)));
    R.set r "incremental.front_cells_mean"
      (Stats.ratio (Float.of_int !front) (Float.of_int !repaired));
    R.set r "server.fingerprint_ms"
      (Replay.mean_ms
         (Array.to_list (Array.map (fun c () -> ignore (Ivc_persist.Snapshot.fingerprint c.inst)) chains)))
  end;
  (r, [ ("p50_ms", R.get r "p50_ms") ])
