(* grids: big seeded grids through the first-fit kernel, the tiled and
   work-stealing sweeps, and the out-of-core solver; closed loop,
   library calls only. *)

module S = Ivc_grid.Stencil
module Cert = Ivc_resilient.Cert
module Driver = Ivc_resilient.Driver
module Par = Ivc_kernel.Par_sweep
module Source = Ivc_ooc.Source
module Stats = Perfbench.Stats
module Inputs = Perfbench.Inputs
module R = Result_doc
open Proc

(* One pass (eight in-core colorings and their checks) takes about
   3.5 s on a 2-core x86-64 VM; a run makes one pass per 5 s of
   --seconds, at least one, leaving time for set-up, the out-of-core
   solve and the certificates. *)
let pass_s = 5.0

(* The ooc-smoke parameters: 8 MiB halo budget, default tile. *)
let ooc_budget = 8 lsl 20

type meth = { name : string; call : S.t -> int array * Par.stats option }

let methods =
  [
    { name = "gll"; call = (fun i -> (Ivc.Heuristics.gll i, None)) };
    { name = "tiles"; call = (fun i -> (Ivc_kernel.Tiles.color i, None)) };
    {
      name = "par1";
      call =
        (fun i ->
          let s, st = Par.color ~workers:1 i in
          (s, Some st));
    };
    {
      name = "par2";
      call =
        (fun i ->
          let s, st = Par.color ~workers:2 i in
          (s, Some st));
    };
  ]

let run (ctx : ctx) =
  let r = R.create () in
  let src2 = Inputs.grid2_source ~seed:ctx.seed in
  let src3 = Inputs.grid3_source ~seed:ctx.seed in
  log "grids: inputs digest %s" (Inputs.grids_digest [ src2; src3 ]);
  let spill = Filename.concat ctx.work "ooc-spill" in
  (* out-of-core first, so its memory high-water is read before any
     in-core array exists *)
  rm_rf spill;
  Gc.compact ();
  reset_peak_rss ();
  r.R.attempted <- r.R.attempted + 1;
  let ooc, ooc_s =
    span "Driver.solve_ooc" (fun () ->
        time (fun () -> Driver.solve_ooc ~mem_budget:ooc_budget ~dir:spill src2))
  in
  let ooc_rss = peak_rss_mb "self" in
  let n2 = Source.n_vertices src2 in
  let ooc_maxcolor =
    match ooc with
    | Ok o -> Some o.Driver.ooc_maxcolor
    | Error e ->
        r.R.failed <- r.R.failed + 1;
        R.wrong r "ooc solve: %s" (Driver.ooc_error_to_string e);
        None
  in
  (match ooc with
  | Ok o when ctx.traced ->
      let st = o.Driver.ooc_stats in
      let doc = local_stats () in
      R.set r "ooc.mvps" (Float.of_int n2 /. 1e6 /. ooc_s);
      R.set r "ooc.solve_s" (span_total_ms doc "ooc.solve" /. 1e3);
      R.set r "ooc.verify_s" (span_total_ms doc "ooc.verify" /. 1e3);
      R.set r "ooc.spill_mb" (Float.of_int st.Ivc_ooc.Ooc.spill_bytes /. 1048576.0);
      R.set r "ooc.halo_hit_ratio"
        (Stats.ratio
           (Float.of_int st.Ivc_ooc.Ooc.halo_hits)
           (Float.of_int (st.Ivc_ooc.Ooc.halo_hits + st.Ivc_ooc.Ooc.halo_loads)));
      R.set r "ooc.resident_tiles_hw" (Float.of_int st.Ivc_ooc.Ooc.resident_hw);
      R.set r "ooc.peak_rss_mb" ooc_rss
  | _ -> ());
  rm_rf spill;
  (* set-up: materialize both grids (the median of three builds) *)
  let (grids, lbs), setup_s =
    let g2, t2 = setup_median (fun () -> Source.materialize src2) in
    let g3, t3 = setup_median (fun () -> Source.materialize src3) in
    let (l2, l3), tl = time (fun () -> (Ivc.Bounds.clique_lb g2, Ivc.Bounds.clique_lb g3)) in
    (([| g2; g3 |], [| l2; l3 |]), t2 +. t3 +. tl)
  in
  R.set r "setup_s" setup_s;
  let passes = max 1 (int_of_float (ctx.seconds /. pass_s)) in
  let lat = Stats.Samples.create () in
  let pass_times = Array.make passes 0.0 in
  let per_meth = Hashtbl.create 8 in
  let alloc = ref 0.0 and alloc_v = ref 0 in
  let seam = ref 0 and cells = ref 0 and steals = ref 0 and attempts = ref 0 in
  let certified = ref 0 and vertices = ref 0 in
  let ratios = Stats.Samples.create () in
  let certified_runs = Hashtbl.create 8 in
  let t_window = now () in
  for p = 0 to passes - 1 do
    Array.iteri
      (fun g inst ->
        let n = S.n_vertices inst in
        List.iter
          (fun m ->
            r.R.attempted <- r.R.attempted + 1;
            let a0 = Gc.allocated_bytes () in
            let (starts, pst), dt =
              span ~req:p ("kernel." ^ m.name) (fun () -> time (fun () -> m.call inst))
            in
            if m.name <> "par2" then begin
              alloc := !alloc +. (Gc.allocated_bytes () -. a0);
              alloc_v := !alloc_v + n
            end;
            Stats.Samples.add lat dt;
            pass_times.(p) <- pass_times.(p) +. dt;
            let key = (g, m.name) in
            let s0, n0 = Option.value ~default:(0.0, 0) (Hashtbl.find_opt per_meth key) in
            Hashtbl.replace per_meth key (s0 +. dt, n0 + n);
            (match pst with
            | Some st when m.name = "par2" ->
                seam := !seam + st.Par.seam;
                cells := !cells + st.Par.seam + st.Par.interior;
                steals := !steals + st.Par.steals;
                attempts := !attempts + st.Par.steal_attempts
            | _ -> ());
            (* checks, outside the timed call. The kernel is
               deterministic, so each (grid, method) coloring is
               certified once and later passes must reproduce its
               fingerprint; the parallel sweeps must reproduce the
               sequential sweep of their equivalent order. *)
            let fp = starts_fp starts in
            let ok =
              match Hashtbl.find_opt certified_runs key with
              | Some (fp', _) ->
                  fp = fp'
                  || (R.wrong r "%s %s: coloring changed between passes" (S.describe inst) m.name;
                      false)
              | None -> (
                  let par_ok =
                    pst = None
                    || starts = Ivc_kernel.Ff.color_in_order inst (Par.equivalent_order inst)
                  in
                  if not par_ok then
                    R.wrong r "%s %s: starts differ from the equivalent-order sweep"
                      (S.describe inst) m.name;
                  match Cert.check inst starts with
                  | Error e ->
                      R.wrong r "%s %s: %s" (S.describe inst) m.name (Cert.to_string e);
                      false
                  | Ok mc ->
                      Hashtbl.replace certified_runs key (fp, mc);
                      (if g = 0 && m.name = "tiles" then
                         match ooc_maxcolor with
                         | Some omc when omc <> mc ->
                             R.wrong r "ooc maxcolor %d differs from in-core tiles %d" omc mc
                         | _ -> ());
                      par_ok)
            in
            (match Hashtbl.find_opt certified_runs key with
            | Some (_, mc) when ok && lbs.(g) > 0 ->
                Stats.Samples.add ratios (Float.of_int mc /. Float.of_int lbs.(g))
            | _ -> ());
            if ok then begin
              incr certified;
              vertices := !vertices + n
            end
            else r.R.failed <- r.R.failed + 1)
          methods)
      grids
  done;
  let window_s = since t_window in
  let latencies_s = Stats.Samples.to_array lat in
  R.latency_metrics r ~latencies_s;
  R.set r "solve_s" (Stats.median pass_times);
  R.set r "maxcolor_over_lb" (Stats.mean (Stats.Samples.to_array ratios));
  R.set r "mvps" (Float.of_int !vertices /. 1e6 /. Stats.sum latencies_s);
  R.set r "goodput_rps" (Float.of_int !certified /. window_s);
  R.finish_counts r
    ~certified:(!certified + if ooc_maxcolor = None then 0 else 1);
  R.set r "peak_rss_mb" (peak_rss_mb "self");
  if ctx.traced then begin
    let doc = local_stats () in
    List.iter
      (fun m ->
        let s, n =
          List.fold_left
            (fun (s, n) g ->
              let s', n' = Option.value ~default:(0.0, 0) (Hashtbl.find_opt per_meth (g, m.name)) in
              (s +. s', n + n'))
            (0.0, 0) [ 0; 1 ]
        in
        R.set r ("kernel." ^ m.name ^ "_mvps") (Float.of_int n /. 1e6 /. s))
      methods;
    R.set r "kernel.alloc_b_per_vertex" (!alloc /. Float.of_int (max 1 !alloc_v));
    R.set r "kernel.seam_frac" (Stats.ratio (Float.of_int !seam) (Float.of_int !cells));
    R.set r "kernel.steal_ratio" (Stats.ratio (Float.of_int !steals) (Float.of_int !attempts));
    let fits = counter doc "kernel.bitset_fits" and scans = counter doc "kernel.sorted_scans" in
    R.set r "kernel.bitset_ratio" (Stats.ratio fits (fits +. scans))
  end;
  (r, [ ("solve_s", R.get r "solve_s") ])
