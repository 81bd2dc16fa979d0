(* catalog: the paper's evaluation slice solved by the resilient
   portfolio, closed loop, one thread, library calls only. *)

module S = Ivc_grid.Stencil
module Driver = Ivc_resilient.Driver
module Cert = Ivc_resilient.Cert
module Stats = Perfbench.Stats
module R = Result_doc
open Proc

(* One pass over the slice takes 5-7 s on a 2-core x86-64 VM; a run
   makes one pass per 8 s of --seconds, at least one, so every run of a
   given length does the same work, and reports the median pass. *)
let pass_s = 8.0

let solve inst = Driver.solve ~budget:200 ~improve:true inst

let run (ctx : ctx) =
  let r = R.create () in
  (* set-up takes tens of milliseconds, so its median is over seven *)
  let (slice, lbs, digest), setup_s =
    setup_median ~k:7 (fun () ->
        let slice = Perfbench.Inputs.slice () in
        let buf = Buffer.create 4096 in
        Array.iter (Perfbench.Inputs.digest_add_inst buf) slice;
        (slice, Array.map Ivc.Bounds.clique_lb slice, Perfbench.Inputs.digest buf))
  in
  let n = Array.length slice in
  log "catalog: %d instances, inputs digest %s" n digest;
  R.set r "setup_s" setup_s;
  let passes = max 1 (int_of_float (ctx.seconds /. pass_s)) in
  let lat = Stats.Samples.create () in
  let pass_times = Array.make passes 0.0 in
  let finals = Array.make n [||] in
  let certified = ref 0 and vertices = ref 0 and proven = ref 0 in
  let ratios = Stats.Samples.create () in
  let t_window = now () in
  for p = 0 to passes - 1 do
    Array.iteri
      (fun i inst ->
        r.R.attempted <- r.R.attempted + 1;
        let res, dt =
          span ~req:((p * n) + i) "Driver.solve" (fun () -> time (fun () -> solve inst))
        in
        pass_times.(p) <- pass_times.(p) +. dt;
        match res with
        | Error e ->
            (* with no deadline an answer always exists: no certified
               candidate is a solver bug *)
            r.R.failed <- r.R.failed + 1;
            Stats.Samples.add lat Stats.failed;
            R.wrong r "%s: no certified coloring: %s" (S.describe inst) (Cert.to_string e)
        | Ok o -> (
            Stats.Samples.add lat dt;
            match Cert.check inst o.Driver.starts with
            | Ok mc when mc = o.Driver.maxcolor ->
                incr certified;
                vertices := !vertices + S.n_vertices inst;
                if o.Driver.proven_optimal then incr proven;
                if lbs.(i) > 0 then
                  Stats.Samples.add ratios (Float.of_int mc /. Float.of_int lbs.(i));
                finals.(i) <- o.Driver.starts
            | Ok mc ->
                r.R.failed <- r.R.failed + 1;
                R.wrong r "%s: driver claims %d colors, certificate says %d"
                  (S.describe inst) o.Driver.maxcolor mc
            | Error e ->
                r.R.failed <- r.R.failed + 1;
                R.wrong r "%s: %s" (S.describe inst) (Cert.to_string e)))
      slice
  done;
  let window_s = since t_window in
  let latencies_s = Stats.Samples.to_array lat in
  R.latency_metrics r ~latencies_s;
  R.set r "solve_s" (Stats.median pass_times);
  R.set r "maxcolor_over_lb" (Stats.mean (Stats.Samples.to_array ratios));
  R.set r "mvps"
    (Float.of_int !vertices /. 1e6
    /. Stats.sum (Array.of_list (List.filter Float.is_finite (Array.to_list latencies_s))));
  R.set r "goodput_rps" (Float.of_int !certified /. window_s);
  R.finish_counts r ~certified:!certified;
  R.set r "peak_rss_mb" (peak_rss_mb "self");
  if ctx.traced then begin
    let doc = local_stats () in
    (* spans and counters per pass over the slice *)
    let per_pass v = v /. Float.of_int passes in
    let span_s name = per_pass (span_total_ms doc name /. 1e3) in
    R.set r "resilient.fallback_s" (span_s "resilient.stage_fallback");
    R.set r "resilient.heuristics_s" (span_s "resilient.stage_heuristics");
    R.set r "resilient.improve_s" (span_s "resilient.stage_improve");
    R.set r "exact.solve_s" (span_s "exact.solve");
    let revs = per_pass (counter doc "exact.cp_revisions")
    and nodes = per_pass (counter doc "exact.cp_nodes") in
    R.set r "exact.cp_revisions" revs;
    R.set r "exact.cp_nodes" nodes;
    R.set r "exact.bb_nodes" (per_pass (counter doc "exact.bb_nodes"));
    R.set r "exact.revisions_per_cp_node" (Stats.ratio revs nodes);
    R.set r "resilient.proven_optimal_frac"
      (Float.of_int !proven /. Float.of_int (max 1 !certified));
    (* replay: the certificate alone on every final coloring, each
       heuristic alone over the slice, and the clique bound *)
    let cert_s =
      span "replay.Cert.check" (fun () ->
          let total = ref 0.0 in
          Array.iteri
            (fun i starts ->
              if starts <> [||] then
                total :=
                  !total
                  +. snd
                       (time (fun () ->
                            span ~req:i "Cert.check" (fun () ->
                                ignore (Cert.check slice.(i) starts)))))
            finals;
          !total)
    in
    R.set r "resilient.cert_s" cert_s;
    List.iter
      (fun (a : Ivc.Algo.t) ->
        let s =
          span ("replay.Algo." ^ a.Ivc.Algo.name) (fun () ->
              snd (time (fun () -> Array.iter (fun i -> ignore (a.Ivc.Algo.run i)) slice)))
        in
        R.set r ("core." ^ a.Ivc.Algo.name ^ "_s") s)
      Ivc.Algo.all;
    R.set r "core.clique_lb_s"
      (span "replay.Bounds.clique_lb" (fun () ->
           snd (time (fun () -> Array.iter (fun i -> ignore (Ivc.Bounds.clique_lb i)) slice))))
  end;
  (r, [ ("solve_s", R.get r "solve_s") ])
