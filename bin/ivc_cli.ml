(* Command-line interface to the interval stencil coloring library.

   Subcommands:
     color    color one instance with one or all algorithms
     exact    solve one instance exactly (MILP stand-in)
     catalog  summarize the experiment catalog
     milp     emit the MILP model in LP format
     reduce   build the NAE-3SAT -> 3DS-IVC gadget
     stkde    run the STKDE application with a chosen coloring *)

open Cmdliner
module S = Ivc_grid.Stencil

(* ---- shared instance construction ---------------------------------- *)

let dataset_of_name scale = function
  | "dengue" -> Spatial_data.Datasets.dengue ~scale ()
  | "fluanimal" -> Spatial_data.Datasets.flu_animal ~scale ()
  | "pollen" -> Spatial_data.Datasets.pollen ~scale ()
  | "pollenus" -> Spatial_data.Datasets.pollen_us ~scale ()
  | other ->
      failwith
        ("unknown dataset: " ^ other ^ " (dengue|fluanimal|pollen|pollenus)")

let plane_of_name = function
  | "xy" -> Spatial_data.Project.XY
  | "xt" -> Spatial_data.Project.XT
  | "yt" -> Spatial_data.Project.YT
  | other -> failwith ("unknown plane: " ^ other ^ " (xy|xt|yt)")

let make_instance ~from_file ~dataset ~scale ~plane ~x ~y ~z ~seed ~bound =
  match from_file with
  | Some path -> Spatial_data.Io.load_instance path
  | None ->
  match dataset with
  | Some name ->
      let cloud = dataset_of_name scale name in
      (match z with
      | Some z -> Spatial_data.Gridding.grid3 cloud ~x ~y ~z
      | None -> Spatial_data.Gridding.grid2 cloud (plane_of_name plane) ~x ~y)
  | None ->
      (* synthetic random weights *)
      let rng = Spatial_data.Rng.create seed in
      let f () = Spatial_data.Rng.int rng (bound + 1) in
      (match z with
      | Some z -> S.init3 ~x ~y ~z (fun _ _ _ -> f ())
      | None -> S.init2 ~x ~y (fun _ _ -> f ()))

(* ---- common options ------------------------------------------------- *)

let dataset_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dataset"; "d" ] ~docv:"NAME"
        ~doc:
          "Dataset: dengue, fluanimal, pollen or pollenus. Without it, \
           random weights are used.")

let scale_t =
  Arg.(
    value & opt float 0.2
    & info [ "scale" ] ~docv:"S" ~doc:"Synthetic dataset size multiplier.")

let plane_t =
  Arg.(
    value & opt string "xy"
    & info [ "plane"; "p" ] ~docv:"P"
        ~doc:"2D projection plane: xy, xt or yt.")

let x_t =
  Arg.(
    value & opt int 16 & info [ "x"; "cols" ] ~docv:"X" ~doc:"Grid columns.")

let y_t =
  Arg.(value & opt int 16 & info [ "y"; "rows" ] ~docv:"Y" ~doc:"Grid rows.")

let z_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "z"; "layers" ] ~docv:"Z"
        ~doc:"Grid layers; makes the instance a 3D 27-pt stencil.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let bound_t =
  Arg.(
    value & opt int 20
    & info [ "max-weight" ] ~docv:"W" ~doc:"Maximum random cell weight.")

let from_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "from-file"; "f" ] ~docv:"PATH"
        ~doc:
          "Load the instance from a file in the ivc2/ivc3 text format (see \
           the io module) instead of generating one.")

let instance_t =
  let combine from_file dataset scale plane x y z seed bound =
    make_instance ~from_file ~dataset ~scale ~plane ~x ~y ~z ~seed ~bound
  in
  Term.(
    const combine $ from_file_t $ dataset_t $ scale_t $ plane_t $ x_t $ y_t
    $ z_t $ seed_t $ bound_t)

(* ---- observability options ------------------------------------------- *)

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record tracing spans and write Chrome trace-event JSON to \
           $(docv); load it in chrome://tracing or ui.perfetto.dev.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record counters, gauges and span aggregates and write a flat \
           metrics JSON document to $(docv).")

let obs_t = Term.(const (fun t m -> (t, m)) $ trace_t $ metrics_t)

(* ---- resilience options ----------------------------------------------- *)

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:
          "Wall-clock budget in seconds (monotonic). The command returns \
           the best certified result found in time.")

let faults_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault-injection plan, e.g. \
           'seed=7,crash=0.2,delay=0.05:0.002,lost=0.1'. Defaults to \
           \\$(b,IVC_FAULT_PLAN) when set.")

let fault_plan_of spec =
  match spec with
  | Some s -> Ivc_resilient.Faults.parse s
  | None ->
      Option.value
        (Ivc_resilient.Faults.from_env ())
        ~default:Ivc_resilient.Faults.none

(* ---- checkpointing options -------------------------------------------- *)

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically snapshot solver state to $(docv) (atomic install: \
           temp + fsync + rename), enabling $(b,--resume) after a crash or \
           kill -9. Removed on successful completion.")

let every_t =
  Arg.(
    value & opt float 5.0
    & info [ "checkpoint-every-s" ] ~docv:"S"
        ~doc:
          "Checkpoint cadence in seconds (monotonic clock). 0 saves at \
           every solver poll.")

let resume_t =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the $(b,--checkpoint) file when it holds a valid \
           snapshot for this instance. Any problem with the file (missing, \
           truncated, corrupt, wrong solver, wrong instance) is reported \
           and the solve starts fresh — a bad snapshot can cost the saved \
           progress, never correctness.")

let autosave_of checkpoint every_s =
  Option.map (fun path -> Ivc_persist.Autosave.make ~every_s path) checkpoint

(* Crash-only contract: a checkpoint that survives to successful
   completion is stale state, so remove it; the next run must not
   accidentally resume a finished solve. *)
let discard_checkpoint checkpoint =
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) checkpoint

(* Load + decode the checkpoint file, failing closed: every decode
   error degrades to a fresh solve with the typed reason printed. *)
let load_resume checkpoint resume decode =
  if not resume then None
  else
    match checkpoint with
    | None ->
        Format.printf "resume: no --checkpoint file given; starting fresh@.";
        None
    | Some path -> (
        match Result.bind (Ivc_persist.Snapshot.load path) decode with
        | Ok r ->
            Format.printf "resume: continuing from %s@." path;
            Some r
        | Error e ->
            Format.printf "resume: %s: %s; starting fresh@." path
              (Ivc_persist.Snapshot.error_to_string e);
            None)

(* Enable the observability layer iff an export destination was asked
   for, run the command, then write the exports (also on failure, so a
   crashing run still leaves a trace to look at). *)
let with_obs (trace, metrics) f =
  let on = trace <> None || metrics <> None in
  if on then begin
    Ivc_obs.reset ();
    Ivc_obs.set_enabled true
  end;
  Fun.protect
    ~finally:(fun () ->
      if on then begin
        Ivc_obs.set_enabled false;
        Option.iter
          (fun path ->
            Ivc_obs.Export.write_trace path;
            Format.printf "wrote trace %s@." path)
          trace;
        Option.iter
          (fun path ->
            Ivc_obs.Export.write_metrics path;
            Format.printf "wrote metrics %s@." path)
          metrics
      end)
    f

(* ---- color ----------------------------------------------------------- *)

let color_cmd =
  let algo_t =
    Arg.(
      value & opt string "all"
      & info [ "algo"; "a" ] ~docv:"A"
          ~doc:"Algorithm (GLL GZO GLF GKF SGK BD BDP) or 'all'.")
  in
  let show_t =
    Arg.(
      value & flag & info [ "show" ] ~doc:"Print the coloring grid (2D only).")
  in
  let ooc_t =
    Arg.(
      value & flag
      & info [ "ooc" ]
          ~doc:
            "Solve out of core: stream the grid tile by tile under a fixed \
             memory budget, spilling completed tiles to $(b,--spill-dir) and \
             resuming automatically from any valid spills found there (kill \
             -9 safe). Synthetic instances use a counter-mode generator so \
             the grid is never materialized; the coloring is certified by \
             the streaming verifier (and the in-core gate on small \
             instances).")
  in
  let mem_budget_t =
    Arg.(
      value & opt int 64
      & info [ "mem-budget" ] ~docv:"MIB"
          ~doc:"Resident halo-tile budget for $(b,--ooc), in MiB.")
  in
  let spill_dir_t =
    Arg.(
      value & opt string "ivc-spill"
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:"Spill directory for $(b,--ooc) tile snapshots.")
  in
  let tile_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "tile" ] ~docv:"T"
          ~doc:"Tile edge override for $(b,--ooc) (must be >= 2).")
  in
  let run_ooc spec mem_budget_mib dir tile =
    let from_file, dataset, x, y, z, seed, bound, inst_thunk = spec in
    let src =
      match (from_file, dataset) with
      | None, None -> (
          (* counter-mode weights: O(1) memory at any grid size *)
          match z with
          | Some z -> Ivc_ooc.Source.seeded3 ~x ~y ~z ~seed ~bound:(bound + 1)
          | None -> Ivc_ooc.Source.seeded2 ~x ~y ~seed ~bound:(bound + 1))
      | _ -> Ivc_ooc.Source.of_stencil (inst_thunk ())
    in
    let mem_budget = mem_budget_mib * 1024 * 1024 in
    Format.printf "ooc: %d vertices, %d tiles (edge %d), budget %d MiB, %s@."
      (Ivc_ooc.Source.n_vertices src)
      (Ivc_ooc.Ooc.n_tiles ?tile src)
      (Ivc_ooc.Ooc.tile_size ?tile src)
      mem_budget_mib dir;
    match Ivc_resilient.Driver.solve_ooc ?tile ~mem_budget ~dir src with
    | Error e ->
        Format.printf "ooc FAILED: %s@."
          (Ivc_resilient.Driver.ooc_error_to_string e);
        exit 1
    | Ok o ->
        let st = o.Ivc_resilient.Driver.ooc_stats in
        Format.printf
          "ooc maxcolor %d (certified%s): %d tiles solved, %d resumed, %d \
           cells in %.1f ms (%.2f Mv/s)@."
          o.Ivc_resilient.Driver.ooc_maxcolor
          (if o.Ivc_resilient.Driver.ooc_cert_in_core then " + in-core gate"
           else "")
          st.Ivc_ooc.Ooc.solved st.Ivc_ooc.Ooc.resumed st.Ivc_ooc.Ooc.cells
          (1000.0 *. st.Ivc_ooc.Ooc.elapsed_s)
          (Float.of_int st.Ivc_ooc.Ooc.cells
          /. (1e6 *. Float.max 1e-9 st.Ivc_ooc.Ooc.elapsed_s));
        Format.printf
          "ooc spill %.1f MiB written, halo %.1f MiB read (%d loads, %d \
           hits), resident high-water %d tiles@."
          (Float.of_int st.Ivc_ooc.Ooc.spill_bytes /. (1024.0 *. 1024.0))
          (Float.of_int st.Ivc_ooc.Ooc.halo_bytes /. (1024.0 *. 1024.0))
          st.Ivc_ooc.Ooc.halo_loads st.Ivc_ooc.Ooc.halo_hits
          st.Ivc_ooc.Ooc.resident_hw
  in
  let run spec algo show obs ooc mem_budget_mib spill_dir tile =
    with_obs obs @@ fun () ->
    if ooc then run_ooc spec mem_budget_mib spill_dir tile
    else begin
    let _, _, _, _, _, _, _, inst_thunk = spec in
    let inst = inst_thunk () in
    let lb = Ivc.Bounds.combined inst in
    Format.printf "instance: %s, clique LB %d@." (S.describe inst) lb;
    let algos =
      if algo = "all" then Ivc.Algo.all
      else
        match Ivc.Algo.find algo with
        | Some a -> [ a ]
        | None -> failwith ("unknown algorithm " ^ algo)
    in
    List.iter
      (fun (a : Ivc.Algo.t) ->
        let t0 = Ivc_obs.now_ns () in
        let starts =
          Ivc_obs.Span.record ~cat:"cli"
            ~args:[ ("algo", a.Ivc.Algo.name) ]
            "cli.color"
            (fun () -> a.Ivc.Algo.run inst)
        in
        let dt = Ivc_obs.elapsed_s ~since:t0 in
        let mc = Ivc.Coloring.assert_valid inst starts in
        Format.printf "%-4s maxcolor %6d  (%.4f of LB)  %.1f ms@."
          a.Ivc.Algo.name mc
          (Float.of_int mc /. Float.of_int (max 1 lb))
          (1000.0 *. dt);
        if show && not (S.is_3d inst) then
          Format.printf "%a@." (Ivc.Coloring.pp_grid inst) starts)
      algos
    end
  in
  (* Like [instance_t] but lazy: --ooc must not materialize the grid,
     that is the whole point. The raw spec rides along so the out-of-core
     path can build a counter-mode source instead. *)
  let spec_t =
    let combine from_file dataset scale plane x y z seed bound =
      ( from_file,
        dataset,
        x,
        y,
        z,
        seed,
        bound,
        fun () ->
          make_instance ~from_file ~dataset ~scale ~plane ~x ~y ~z ~seed ~bound
      )
    in
    Term.(
      const combine $ from_file_t $ dataset_t $ scale_t $ plane_t $ x_t $ y_t
      $ z_t $ seed_t $ bound_t)
  in
  Cmd.v (Cmd.info "color" ~doc:"Color an instance with the paper's heuristics")
    Term.(
      const run $ spec_t $ algo_t $ show_t $ obs_t $ ooc_t $ mem_budget_t
      $ spill_dir_t $ tile_t)

(* ---- exact ------------------------------------------------------------ *)

let exact_cmd =
  let budget_t =
    Arg.(
      value & opt int 200_000
      & info [ "budget" ] ~docv:"N" ~doc:"Branch-and-bound node budget.")
  in
  let time_t =
    Arg.(
      value & opt float 30.0
      & info [ "time-limit" ] ~docv:"S"
          ~doc:"Wall-clock time limit in seconds, on the monotonic clock.")
  in
  let portfolio_t =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Route through the resilient portfolio driver (exact, then \
             heuristics, then greedy fallback) with a certificate gate. \
             Implied by $(b,--deadline).")
  in
  let run inst budget time_limit_s deadline portfolio checkpoint every_s
      resume obs =
    with_obs obs @@ fun () ->
    Format.printf "instance: %s@." (S.describe inst);
    let autosave = autosave_of checkpoint every_s in
    if portfolio || deadline <> None then begin
      let resume =
        load_resume checkpoint resume
          (Ivc_resilient.Driver.decode_resume ~inst)
      in
      match
        Ivc_resilient.Driver.solve ?deadline_s:deadline ~budget ?autosave
          ?resume inst
      with
      | Ok o ->
          discard_checkpoint checkpoint;
          Format.printf
            "portfolio: maxcolor %d, lower bound %d, provenance %s, %.1f ms@."
            o.Ivc_resilient.Driver.maxcolor o.Ivc_resilient.Driver.lower_bound
            (Ivc_resilient.Driver.provenance_to_string
               o.Ivc_resilient.Driver.provenance)
            (1000.0 *. o.Ivc_resilient.Driver.elapsed_s);
          Option.iter
            (fun s -> Format.printf "deadline remaining: %.2fs@." s)
            o.Ivc_resilient.Driver.deadline_remaining_s;
          if o.Ivc_resilient.Driver.proven_optimal then
            Format.printf "proven optimal: maxcolor* = %d@."
              o.Ivc_resilient.Driver.maxcolor
          else Format.printf "gap not closed before the deadline@."
      | Error e ->
          Format.eprintf "certificate gate rejected every candidate: %s@."
            (Ivc_resilient.Cert.to_string e);
          exit 1
    end
    else begin
      let resume =
        load_resume checkpoint resume (Ivc_exact.Optimize.plan_resume ~inst)
      in
      let o =
        Ivc_exact.Optimize.solve ~budget ~time_limit_s ?autosave ?resume inst
      in
      discard_checkpoint checkpoint;
      Format.printf "lower bound %d, upper bound %d (%s%s)@."
        o.Ivc_exact.Optimize.lower_bound o.Ivc_exact.Optimize.upper_bound
        o.Ivc_exact.Optimize.nodes_hint
        (if o.Ivc_exact.Optimize.resumed then ", resumed" else "");
      if o.Ivc_exact.Optimize.proven_optimal then
        Format.printf "proven optimal: maxcolor* = %d@."
          o.Ivc_exact.Optimize.upper_bound
      else Format.printf "gap not closed within budget@."
    end
  in
  Cmd.v (Cmd.info "exact" ~doc:"Solve an instance exactly (Gurobi stand-in)")
    Term.(
      const run $ instance_t $ budget_t $ time_t $ deadline_t $ portfolio_t
      $ checkpoint_t $ every_t $ resume_t $ obs_t)

(* ---- catalog ----------------------------------------------------------- *)

let catalog_cmd =
  let three_t =
    Arg.(value & flag & info [ "3d" ] ~doc:"3D catalog instead of 2D.")
  in
  let sub_t =
    Arg.(
      value & opt int 50
      & info [ "subsample" ] ~docv:"K" ~doc:"Keep 1 in K entries.")
  in
  let run scale three subsample =
    let entries =
      if three then Spatial_data.Catalog.entries_3d ~scale ~subsample ()
      else Spatial_data.Catalog.entries_2d ~scale ~subsample ()
    in
    Format.printf "%d catalog entries (subsample 1/%d):@."
      (List.length entries) subsample;
    List.iter
      (fun e -> Format.printf "  %s@." (Spatial_data.Catalog.describe e))
      entries
  in
  Cmd.v (Cmd.info "catalog" ~doc:"List the experiment instance catalog")
    Term.(const run $ scale_t $ three_t $ sub_t)

(* ---- milp --------------------------------------------------------------- *)

let milp_cmd =
  let run inst = print_string (Ivc_exact.Milp.to_string inst) in
  Cmd.v
    (Cmd.info "milp" ~doc:"Emit the instance's MILP in LP format (Sec VI-D)")
    Term.(const run $ instance_t)

(* ---- reduce --------------------------------------------------------------- *)

let reduce_cmd =
  let n_t =
    Arg.(value & opt int 4 & info [ "vars"; "n" ] ~docv:"N" ~doc:"Variables.")
  in
  let m_t =
    Arg.(value & opt int 3 & info [ "clauses"; "m" ] ~docv:"M" ~doc:"Clauses.")
  in
  let decide_t =
    Arg.(
      value & flag
      & info [ "decide" ]
          ~doc:"Run the exact decision solver on the gadget (k = 14).")
  in
  let run n m seed decide =
    let sat = Nae3sat.Instance.random ~seed ~n ~m in
    Format.printf "%a@." Nae3sat.Instance.pp sat;
    Nae3sat.Reduction.check_structure sat;
    let inst = Nae3sat.Reduction.build sat in
    Format.printf "gadget: %s (k = %d)@." (S.describe inst) Nae3sat.Reduction.k;
    Format.printf "NAE-3SAT satisfiable (brute force): %b@."
      (Nae3sat.Instance.is_satisfiable sat);
    if decide then
      match Ivc_exact.Cp.decide inst ~k:Nae3sat.Reduction.k with
      | Ivc_exact.Cp.Colorable starts ->
          let a = Nae3sat.Reduction.assignment_of_coloring sat starts in
          Format.printf
            "gadget 14-colorable; extracted assignment satisfies: %b@."
            (Nae3sat.Instance.satisfies sat a)
      | Ivc_exact.Cp.Not_colorable -> Format.printf "gadget not 14-colorable@."
      | Ivc_exact.Cp.Unknown -> Format.printf "solver budget exhausted@."
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Build the Section IV NAE-3SAT -> 3DS-IVC gadget")
    Term.(const run $ n_t $ m_t $ seed_t $ decide_t)

(* ---- stkde ------------------------------------------------------------------ *)

let stkde_cmd =
  let workers_t =
    Arg.(
      value & opt int 4
      & info [ "workers"; "j" ] ~docv:"P" ~doc:"Worker domains.")
  in
  let algo_t =
    Arg.(
      value & opt string "BDP"
      & info [ "algo"; "a" ] ~docv:"A" ~doc:"Coloring algorithm.")
  in
  let run dataset scale workers algo faults obs =
    with_obs obs @@ fun () ->
    let plan = fault_plan_of faults in
    (* the scatter task is not idempotent (it accumulates into the
       shared density field), so lost-result faults — which recovery
       must re-execute — would double-count mass; keep crash/delay. *)
    let plan =
      if plan.Ivc_resilient.Faults.lost > 0.0 then begin
        Format.eprintf
          "stkde: ignoring lost=%g (scatter tasks are not idempotent)@."
          plan.Ivc_resilient.Faults.lost;
        { plan with Ivc_resilient.Faults.lost = 0.0 }
      end
      else plan
    in
    let cloud =
      dataset_of_name scale (Option.value ~default:"dengue" dataset)
    in
    let bx, by, bz = (8, 8, 4) in
    let hs =
      Float.min
        ((cloud.Spatial_data.Points.x1 -. cloud.Spatial_data.Points.x0)
         /. (2.5 *. Float.of_int bx))
        ((cloud.Spatial_data.Points.y1 -. cloud.Spatial_data.Points.y0)
         /. (2.5 *. Float.of_int by))
    in
    let ht =
      (cloud.Spatial_data.Points.t1 -. cloud.Spatial_data.Points.t0)
      /. (2.5 *. Float.of_int bz)
    in
    let cfg =
      Stkde.App.make ~cloud ~voxels:(32, 32, 16) ~boxes:(bx, by, bz) ~hs ~ht
    in
    let inst = Stkde.App.coloring_instance cfg in
    let a =
      match Ivc.Algo.find algo with
      | Some a -> a
      | None -> failwith ("unknown algorithm " ^ algo)
    in
    let starts = a.Ivc.Algo.run inst in
    let mc = Ivc.Coloring.assert_valid inst starts in
    Format.printf "tasks: %s, %s maxcolor %d@." (S.describe inst)
      a.Ivc.Algo.name mc;
    let seq_t0 = Unix.gettimeofday () in
    let seq = Stkde.App.density_sequential cfg in
    let seq_t = Unix.gettimeofday () -. seq_t0 in
    let wrap_task =
      if Ivc_resilient.Faults.is_none plan then None
      else Some (Ivc_resilient.Faults.wrap plan ~n:(S.n_vertices inst))
    in
    let par, par_t =
      Stkde.App.density_parallel ?wrap_task cfg ~starts ~workers
    in
    let sched = Stkde.App.simulate cfg ~starts ~workers ~penalty:0.03 in
    Format.printf
      "sequential %.3fs, parallel (%d domains) %.3fs, max density diff \
       %.2e@."
      seq_t workers par_t (Stkde.App.max_diff seq par);
    Format.printf
      "simulated makespan %.1f work units (critical-path bound of the \
       coloring)@."
      sched.Taskpar.Sim.makespan
  in
  Cmd.v
    (Cmd.info "stkde"
       ~doc:"Run the space-time kernel density application (Sec VII)")
    Term.(
      const run $ dataset_t $ scale_t $ workers_t $ algo_t $ faults_t $ obs_t)

(* ---- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let budget_t =
    Arg.(
      value & opt float 10.0
      & info [ "budget-s" ] ~docv:"S"
          ~doc:"Wall-clock fuzzing budget in seconds (monotonic).")
  in
  let max_instances_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-instances" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) generated instances (default: budget only).")
  in
  let oracle_t =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Run only this oracle (repeatable). Default: the full registry.")
  in
  let out_dir_t =
    Arg.(
      value & opt string "fuzz-repros"
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for shrunk repro files (created on the first \
             failure).")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one repro file instead of fuzzing: run its oracle on \
             its instance and exit 0 (pass) or 1 (violation reproduced).")
  in
  let inject_bug_t =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Also run the kernel-diff!bug oracle: a deliberate off-by-one \
             applied to a scratch copy of the kernel output. Demonstrates \
             the catch-shrink-replay loop end to end; the campaign is \
             expected to fail.")
  in
  let run seed budget_s max_instances oracle_names out_dir replay inject_bug
      checkpoint every_s resume obs =
    with_obs obs @@ fun () ->
    match replay with
    | Some path -> (
        let name, verdict = Ivc_check.Fuzz.replay path in
        match verdict with
        | Ivc_check.Oracle.Pass ->
            Format.printf "%s: oracle %s passes@." path name
        | Ivc_check.Oracle.Fail msg ->
            Format.printf "%s: oracle %s violation reproduced: %s@." path
              name msg;
            exit 1)
    | None ->
        let named =
          List.map
            (fun n ->
              match Ivc_check.Oracles.find n with
              | Some o -> o
              | None ->
                  failwith
                    ("unknown oracle " ^ n ^ " (known: "
                    ^ String.concat " " Ivc_check.Oracles.names
                    ^ ")"))
            oracle_names
        in
        let oracles =
          (if named = [] then Ivc_check.Oracles.all else named)
          @ (if inject_bug then [ Ivc_check.Oracles.kernel_diff_buggy ]
             else [])
        in
        Format.printf "fuzz: seed %d, budget %gs, oracles: %s@." seed budget_s
          (String.concat " "
             (List.map
                (fun (o : Ivc_check.Oracle.t) -> o.Ivc_check.Oracle.name)
                oracles));
        let fuzz_resume =
          load_resume checkpoint resume
            (Ivc_check.Fuzz.decode_checkpoint ~seed)
        in
        let autosave = autosave_of checkpoint every_s in
        let report =
          Ivc_check.Fuzz.run ~seed ~budget_s ?max_instances
            ~oracles ~out_dir ?autosave ?resume:fuzz_resume ()
        in
        (* The campaign ran to its budget/caps — the crash-only
           checkpoint is spent even if oracles failed. *)
        discard_checkpoint checkpoint;
        Format.printf
          "fuzz: %d instances, %d oracle runs in %.1fs (%.1f instances/s)%s@."
          report.Ivc_check.Fuzz.instances report.Ivc_check.Fuzz.oracle_runs
          report.Ivc_check.Fuzz.elapsed_s
          (Ivc_check.Fuzz.rate report)
          (if report.Ivc_check.Fuzz.resumed then " [resumed]" else "");
        match report.Ivc_check.Fuzz.failures with
        | [] -> Format.printf "fuzz: all oracles clean@."
        | fs ->
            List.iter
              (fun (f : Ivc_check.Fuzz.failure) ->
                Format.printf
                  "fuzz: FAIL %s on instance %d (%s)@.      %s@.      \
                   shrunk to %s: %s@."
                  f.Ivc_check.Fuzz.oracle f.Ivc_check.Fuzz.index
                  (S.describe f.Ivc_check.Fuzz.original)
                  f.Ivc_check.Fuzz.message
                  (S.describe f.Ivc_check.Fuzz.shrunk)
                  f.Ivc_check.Fuzz.shrunk_message;
                Option.iter
                  (fun p -> Format.printf "      repro: %s@." p)
                  f.Ivc_check.Fuzz.repro_path)
              fs;
            Format.printf "fuzz: %d violation(s) found@." (List.length fs);
            exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: seeded instances, every oracle, \
             shrinking, replayable repros")
    Term.(
      const run $ seed_t $ budget_t $ max_instances_t $ oracle_t $ out_dir_t
      $ replay_t $ inject_bug_t $ checkpoint_t $ every_t $ resume_t $ obs_t)

(* ---- client ----------------------------------------------------------------- *)

(* Talk to a running ivc_serve daemon (see bin/ivc_serve.ml): one-shot
   solves, live metrics, graceful shutdown, and a concurrent burst
   driver used by the CI server-smoke job and the bench server block. *)

module Srv = Ivc_server.Server
module Proto = Ivc_server.Proto
module Client = Ivc_server.Client

let sock_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix-domain socket path.")

let tcp_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Daemon TCP port on 127.0.0.1 (instead of --socket).")

let addr_of socket tcp =
  match (socket, tcp) with
  | Some path, None -> Srv.Unix_sock path
  | None, Some port -> Srv.Tcp ("127.0.0.1", port)
  | None, None -> Srv.Unix_sock "ivc_serve.sock"
  | Some _, Some _ -> failwith "choose one of --socket and --tcp"

let priority_t =
  Arg.(
    value & opt int 10
    & info [ "priority" ] ~docv:"P" ~doc:"Request priority; lower runs first.")

let no_cache_t =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Bypass the server's fingerprint solution cache.")

let req_budget_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "Exact-stage node budget for the request (bounds how long the \
           server spends trying to prove optimality).")

let no_improve_t =
  Arg.(
    value & flag
    & info [ "no-improve" ]
        ~doc:
          "Skip the iterated-improvement stage (which otherwise runs until \
           the deadline); with a small --budget this makes each request \
           complete in milliseconds.")

let connect_or_die addr =
  match Client.connect ~timeout_s:10.0 addr with
  | Ok c -> c
  | Error e ->
      Format.eprintf "connect failed: %s@." (Client.error_to_string e);
      exit 1

let retries_t =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry each request up to $(docv) extra times with seeded \
           jittered backoff, reconnecting per attempt; every returned \
           Solution is verified end-to-end (certificate + fingerprint).")

let retry_of ~retries ~seed ~deadline =
  (* a retried attempt must fail fast relative to the solve deadline:
     the window covers queueing + solving + the response, and a stuck
     attempt is cheaper to abandon and re-issue than to wait out *)
  let window =
    match deadline with
    | Some d -> Float.max 10.0 ((2.0 *. d) +. 5.0)
    | None -> 120.0
  in
  {
    Client.default_retry with
    Client.attempts = retries + 1;
    seed;
    request_timeout_s = Some window;
  }

let print_response i = function
  | Proto.Solution s ->
      Format.printf
        "response %d: maxcolor %d, lower bound %d, provenance %s, %.1f ms, \
         cache_hit=%b%s%s@."
        i s.Proto.maxcolor s.Proto.lower_bound s.Proto.provenance
        (1000.0 *. s.Proto.elapsed_s) s.Proto.cache_hit
        (if s.Proto.resumed then ", resumed" else "")
        (match s.Proto.degraded with
        | None -> ""
        | Some d -> ", degraded=" ^ Proto.degrade_to_string d)
  | Proto.Shed { code; depth; message } ->
      Format.printf "response %d: shed [%s] (%d queued): %s@." i
        (Proto.shed_code_to_string code)
        depth message
  | Proto.Error { code; message } ->
      Format.printf "response %d: error [%s]: %s@." i
        (Proto.error_code_to_string code)
        message
  | Proto.Pong _ | Proto.Stats_reply _ | Proto.Shutting_down
  | Proto.Health_reply _ | Proto.Op _ | Proto.Repl_heartbeat _
  | Proto.Promoted _ | Proto.Patch _ ->
      Format.printf "response %d: unexpected@." i

let client_solve_cmd =
  let repeat_t =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Send the same instance $(docv) times on one connection (the \
             second and later ones exercise the server cache).")
  in
  let run inst socket tcp deadline priority no_cache budget no_improve repeat
      retries =
    let addr = addr_of socket tcp in
    let opts =
      {
        Proto.deadline_s = deadline;
        priority;
        budget;
        improve = not no_improve;
        use_cache = not no_cache;
      }
    in
    let failures = ref 0 in
    if retries > 0 then
      (* fault-tolerant path: reconnect-per-attempt, verified answers *)
      let retry = retry_of ~retries ~seed:0 ~deadline in
      for i = 1 to repeat do
        match Client.solve_verified ~retry ~addr ~opts inst with
        | Ok (Proto.Solution _ as r) -> print_response i r
        | Ok r ->
            print_response i r;
            incr failures
        | Error e ->
            Format.eprintf "request %d failed: %s@." i
              (Client.error_to_string e);
            incr failures
      done
    else begin
      let c = connect_or_die addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      for i = 1 to repeat do
        match Client.solve c ~opts inst with
        | Ok (Proto.Solution s as r) ->
            (* client-side certification: trust, then verify *)
            let mc = Ivc_resilient.Cert.assert_ok inst s.Proto.starts in
            assert (mc = s.Proto.maxcolor);
            print_response i r
        | Ok r ->
            print_response i r;
            incr failures
        | Error e ->
            Format.eprintf "request %d failed: %s@." i
              (Client.error_to_string e);
            incr failures
      done
    end;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "solve" ~doc:"Submit one instance to a running daemon")
    Term.(
      const run $ instance_t $ sock_t $ tcp_t $ deadline_t $ priority_t
      $ no_cache_t $ req_budget_t $ no_improve_t $ repeat_t $ retries_t)

let client_ping_cmd =
  let run socket tcp =
    let c = connect_or_die (addr_of socket tcp) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.ping c with
    | Ok v -> Format.printf "pong (protocol version %d)@." v
    | Error e ->
        Format.eprintf "ping failed: %s@." (Client.error_to_string e);
        exit 1
  in
  Cmd.v (Cmd.info "ping" ~doc:"Round-trip to a running daemon")
    Term.(const run $ sock_t $ tcp_t)

(* Readiness probe: exit 0 iff the daemon answers Health with ready;
   --wait polls until it does (or the window closes), which is what
   the CI chaos job and any process manager health check needs. *)
let client_health_cmd =
  let wait_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "wait" ] ~docv:"S"
          ~doc:
            "Keep probing for up to $(docv) seconds until the daemon \
             reports ready; without it, probe exactly once.")
  in
  let run socket tcp wait =
    let addr = addr_of socket tcp in
    let probe () =
      match Client.connect ~timeout_s:2.0 addr with
      | Error e -> Error (Client.error_to_string e)
      | Ok c -> (
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          match Client.health ~timeout_s:5.0 c with
          | Ok h -> Ok h
          | Error e -> Error (Client.error_to_string e))
    in
    let print (h : Proto.health) =
      Format.printf
        "health: ready=%b draining=%b queue=%d running=%d connections=%d \
         brownout=%s uptime=%.1fs role=%s applied=%d lag=%d last_scrub=%s \
         quarantined=%d@."
        h.Proto.ready h.Proto.draining h.Proto.queue_depth h.Proto.running
        h.Proto.connections
        (match h.Proto.brownout with
        | None -> "none"
        | Some d -> Proto.degrade_to_string d)
        h.Proto.uptime_s
        (Proto.role_to_string h.Proto.role)
        h.Proto.applied_seq h.Proto.replication_lag
        (if h.Proto.last_scrub_s < 0.0 then "never"
         else Printf.sprintf "%.1fs" h.Proto.last_scrub_s)
        h.Proto.quarantined
    in
    match wait with
    | None -> (
        match probe () with
        | Ok h ->
            print h;
            if not h.Proto.ready then exit 1
        | Error m ->
            Format.eprintf "health probe failed: %s@." m;
            exit 1)
    | Some budget_s ->
        let t0 = Ivc_obs.now_ns () in
        let rec go last =
          if Ivc_obs.elapsed_s ~since:t0 > budget_s then begin
            Format.eprintf "daemon not ready after %.1fs: %s@." budget_s last;
            exit 1
          end
          else
            match probe () with
            | Ok h when h.Proto.ready -> print h
            | Ok h ->
                print h;
                Thread.delay 0.2;
                go "not ready"
            | Error m ->
                Thread.delay 0.2;
                go m
        in
        go "no probe"
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Probe a daemon's readiness (exit 0 iff ready)")
    Term.(const run $ sock_t $ tcp_t $ wait_t)

let client_stats_cmd =
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the metrics JSON to $(docv) instead of stdout.")
  in
  let run socket tcp out =
    let c = connect_or_die (addr_of socket tcp) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.stats c with
    | Ok json -> (
        match out with
        | None -> print_endline json
        | Some path ->
            Spatial_data.Io.save path (json ^ "\n");
            Format.printf "wrote %s@." path)
    | Error e ->
        Format.eprintf "stats failed: %s@." (Client.error_to_string e);
        exit 1
  in
  Cmd.v (Cmd.info "stats" ~doc:"Fetch a running daemon's live metrics")
    Term.(const run $ sock_t $ tcp_t $ out_t)

let client_shutdown_cmd =
  let run socket tcp =
    let c = connect_or_die (addr_of socket tcp) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.shutdown c with
    | Ok () -> Format.printf "daemon shutting down@."
    | Error e ->
        Format.eprintf "shutdown failed: %s@." (Client.error_to_string e);
        exit 1
  in
  Cmd.v (Cmd.info "shutdown" ~doc:"Gracefully stop a running daemon")
    Term.(const run $ sock_t $ tcp_t)

let client_promote_cmd =
  let run socket tcp =
    let c = connect_or_die (addr_of socket tcp) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.promote ~timeout_s:10.0 c with
    | Ok applied_seq -> Format.printf "promoted (applied_seq=%d)@." applied_seq
    | Error e ->
        Format.eprintf "promote failed: %s@." (Client.error_to_string e);
        exit 1
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Promote a warm standby to primary (it starts serving)")
    Term.(const run $ sock_t $ tcp_t)

(* Repeated --endpoint flags turn a burst into a failover client:
   every request walks the ordered list (primary first), riding out
   dead endpoints, Not_primary refusals and the promotion window. *)
let endpoints_t =
  Arg.(
    value & opt_all string []
    & info [ "endpoint" ] ~docv:"ENDPOINT"
        ~doc:
          "Failover endpoint (unix:PATH, HOST:PORT, or a bare socket path; \
           repeatable, tried in order). Overrides --socket/--tcp and \
           implies verified, retried requests.")

let endpoints_of_strings = function
  | [] -> None
  | l ->
      Some
        (List.map
           (fun s ->
             match Client.addr_of_string s with
             | Ok a -> a
             | Error m -> failwith ("--endpoint: " ^ m))
           l)

(* Concurrent burst: [total] requests spread over [concurrency]
   connections (one thread per connection, one request in flight
   each). Instance [i] is deterministic from (seed, i); [repeat_every]
   > 0 makes every K-th request reuse instance 0, so a burst
   exercises the fingerprint cache. Every Solution is re-certified
   client-side. Exit 1 on protocol errors, server errors, or an
   uncertified coloring — sheds are an expected, typed outcome and do
   not fail the burst. *)
let client_burst_cmd =
  let total_t =
    Arg.(
      value & opt int 8
      & info [ "total"; "n" ] ~docv:"N" ~doc:"Total requests.")
  in
  let conc_t =
    Arg.(
      value & opt int 8
      & info [ "concurrency"; "c" ] ~docv:"C" ~doc:"Concurrent connections.")
  in
  let repeat_every_t =
    Arg.(
      value & opt int 0
      & info [ "repeat-every" ] ~docv:"K"
          ~doc:
            "Every $(docv)-th request reuses the first instance (0 = all \
             distinct).")
  in
  let mix3d_t =
    Arg.(
      value & flag & info [ "mix-3d" ] ~doc:"Alternate 2D and 3D instances.")
  in
  let run socket tcp x y z seed bound deadline priority no_cache budget
      no_improve total concurrency repeat_every mix3d retries endpoints =
    let addr = addr_of socket tcp in
    let eps = endpoints_of_strings endpoints in
    let opts =
      {
        Proto.deadline_s = deadline;
        priority;
        budget;
        improve = not no_improve;
        use_cache = not no_cache;
      }
    in
    let inst_of i =
      let i = if repeat_every > 0 && i mod repeat_every = 0 then 0 else i in
      let rng = Spatial_data.Rng.create (seed + (1000 * i)) in
      let f () = Spatial_data.Rng.int rng (bound + 1) in
      if mix3d && i mod 2 = 1 then
        let z = Option.value z ~default:4 in
        S.init3 ~x:(max 2 (x / 2)) ~y:(max 2 (y / 2)) ~z (fun _ _ _ -> f ())
      else S.init2 ~x ~y (fun _ _ -> f ())
    in
    let lock = Mutex.create () in
    let next = ref 0 in
    let solutions = ref 0 and certified = ref 0 and cache_hits = ref 0 in
    let shed_full = ref 0 and shed_large = ref 0 and shed_expired = ref 0 in
    let errors = ref 0 and degraded = ref 0 and failovers = ref 0 in
    let latencies = ref [] in
    let note f =
      Mutex.lock lock;
      f ();
      Mutex.unlock lock
    in
    let take () =
      Mutex.lock lock;
      let i = !next in
      next := i + 1;
      Mutex.unlock lock;
      i
    in
    let record inst t0 = function
      | Ok (Proto.Solution s) ->
          let dt = Ivc_obs.elapsed_s ~since:t0 in
          let ok =
            Result.is_ok (Ivc_resilient.Cert.check inst s.Proto.starts)
          in
          note (fun () ->
              incr solutions;
              if ok then incr certified;
              if s.Proto.cache_hit then incr cache_hits;
              if s.Proto.degraded <> None then incr degraded;
              latencies := dt :: !latencies)
      | Ok (Proto.Shed { code; _ }) ->
          note (fun () ->
              match code with
              | Proto.Queue_full -> incr shed_full
              | Proto.Too_large -> incr shed_large
              | Proto.Expired_in_queue -> incr shed_expired)
      | Ok _ -> note (fun () -> incr errors)
      | Error _ -> note (fun () -> incr errors)
    in
    (* With --retries every request is a fresh verified, retried
       connection (the chaos path); without, one connection per worker
       serves its whole share (the fast path). *)
    let worker widx () =
      match eps with
      | Some endpoints ->
          (* failover path: walk the endpoint list per request, with
             enough rounds to ride out a kill + promote in between *)
          let rounds = if retries > 0 then retries else 8 in
          let retry =
            retry_of ~retries:rounds ~seed:(seed + (7919 * widx)) ~deadline
          in
          let rec go () =
            let i = take () in
            if i < total then begin
              let inst = inst_of i in
              let t0 = Ivc_obs.now_ns () in
              (match Client.solve_failover ~retry ~endpoints ~opts inst with
              | Ok (r, f) ->
                  if f.Client.failed_over then
                    note (fun () -> incr failovers);
                  record inst t0 (Ok r)
              | Error e -> record inst t0 (Error e));
              go ()
            end
          in
          go ()
      | None ->
      if retries > 0 then begin
        let retry = retry_of ~retries ~seed:(seed + (7919 * widx)) ~deadline in
        let rec go () =
          let i = take () in
          if i < total then begin
            let inst = inst_of i in
            let t0 = Ivc_obs.now_ns () in
            record inst t0 (Client.solve_verified ~retry ~addr ~opts inst);
            go ()
          end
        in
        go ()
      end
      else
        match Client.connect addr with
        | Error _ -> note (fun () -> incr errors)
        | Ok c ->
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            let rec go () =
              let i = take () in
              if i < total then begin
                let inst = inst_of i in
                let t0 = Ivc_obs.now_ns () in
                record inst t0 (Client.solve c ~opts inst);
                go ()
              end
            in
            go ()
    in
    let threads =
      List.init (max 1 concurrency) (fun w -> Thread.create (worker w) ())
    in
    List.iter Thread.join threads;
    let percentile p =
      1000.0 *. Perfprof.Stats.percentile (Array.of_list !latencies) p
    in
    let sheds = !shed_full + !shed_large + !shed_expired in
    Format.printf
      "burst: total=%d solved=%d certified=%d cache_hits=%d sheds=%d \
       (queue-full=%d too-large=%d expired=%d) degraded=%d errors=%d \
       failovers=%d p50=%.1fms p95=%.1fms@."
      total !solutions !certified !cache_hits sheds !shed_full !shed_large
      !shed_expired !degraded !errors !failovers (percentile 0.50)
      (percentile 0.95);
    if !errors > 0 || !certified <> !solutions then exit 1
  in
  Cmd.v
    (Cmd.info "burst"
       ~doc:"Fire concurrent solve requests at a running daemon")
    Term.(
      const run $ sock_t $ tcp_t $ x_t $ y_t $ z_t $ seed_t $ bound_t
      $ deadline_t $ priority_t $ no_cache_t $ req_budget_t $ no_improve_t
      $ total_t $ conc_t $ repeat_every_t $ mix3d_t $ retries_t $ endpoints_t)

(* Exercise the v3 incremental-repair path end to end: solve once so
   the daemon caches the instance, then walk a seeded delta chain from
   the cached fingerprint. Every reply is
   re-verified client-side — the instance mirror after
   [Delta.apply_pure], the chain key after [Delta.chain_fp], and the
   full certificate — so a wrong repair cannot pass silently. CI's
   incremental-smoke job greps the summary line. *)
let client_delta_cmd =
  let module D = Ivc_incremental.Delta in
  let count_t =
    Arg.(
      value & opt int 100
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of delta requests.")
  in
  let delta_seed_t =
    Arg.(
      value & opt int 42
      & info [ "delta-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the generated delta chain (weight bumps, batches and \
             dimension extensions valid against the evolving instance).")
  in
  let repair_budget_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "repair-budget" ] ~docv:"N"
          ~doc:
            "Per-request repair-front budget; 0 forces the server's \
             full-sweep fallback on every delta.")
  in
  let run inst socket tcp deadline priority no_cache budget no_improve count
      dseed rbudget retries =
    let addr = addr_of socket tcp in
    let opts =
      {
        Proto.deadline_s = deadline;
        priority;
        budget;
        improve = not no_improve;
        use_cache = not no_cache;
      }
    in
    let c = connect_or_die addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (* cache the instance: the chain's first delta seeds the daemon's
       repair state from it *)
    (match Client.solve c ~opts inst with
    | Ok (Proto.Solution s) ->
        ignore (Ivc_resilient.Cert.assert_ok inst s.Proto.starts)
    | Ok r ->
        print_response 0 r;
        exit 1
    | Error e ->
        Format.eprintf "solve failed: %s@." (Client.error_to_string e);
        exit 1);
    let deltas = Ivc_check.Gen.delta_stream ~length:count ~seed:dseed inst in
    let repaired = ref 0 and resolved = ref 0 and failures = ref 0 in
    let latencies = ref [] in
    let mirror = ref inst in
    let fp = ref (Ivc_persist.Snapshot.fingerprint inst) in
    let retry = retry_of ~retries ~seed:dseed ~deadline in
    let verified_delta i d =
      (* the fault-tolerant path: reconnect-per-attempt with the same
         jittered schedule as solve --retries, plus the landed-or-not
         probe after an ambiguous failure. The response fingerprint is
         the authoritative next chain key — when the probe fired, the
         chain advanced one extra no-op past our local chain_fp. *)
      match D.apply_pure !mirror d with
      | Error m ->
          Format.eprintf "request %d: client mirror rejected: %s@." i m;
          incr failures
      | Ok inst' -> (
          let t0 = Ivc_obs.now_ns () in
          match
            Client.delta_verified ~retry ~addr ?budget:rbudget ~fp:!fp
              ~mirror:inst' d
          with
          | Ok (Proto.Solution s) ->
              latencies := Ivc_obs.elapsed_s ~since:t0 :: !latencies;
              mirror := inst';
              fp := s.Proto.fingerprint;
              if
                String.length s.Proto.provenance >= 8
                && String.sub s.Proto.provenance 0 8 = "repaired"
              then incr repaired
              else incr resolved
          | Ok r ->
              print_response i r;
              incr failures
          | Error e ->
              Format.eprintf "request %d failed: %s@." i
                (Client.error_to_string e);
              incr failures)
    in
    List.iteri
      (fun i d ->
        if retries > 0 then verified_delta i d
        else
        let t0 = Ivc_obs.now_ns () in
        match Client.delta c ?budget:rbudget ~fp:!fp d with
        | Ok (Proto.Solution s) -> (
            latencies := Ivc_obs.elapsed_s ~since:t0 :: !latencies;
            match D.apply_pure !mirror d with
            | Error m ->
                Format.eprintf "request %d: client mirror rejected: %s@." i m;
                incr failures
            | Ok inst' -> (
                let fp' = D.chain_fp !fp d in
                (* the server applied it, so the chain advances even if
                   verification is about to fail loudly *)
                mirror := inst';
                fp := fp';
                match Client.verify_delta ~expect_fp:fp' inst' s with
                | Ok _ ->
                    if
                      String.length s.Proto.provenance >= 8
                      && String.sub s.Proto.provenance 0 8 = "repaired"
                    then incr repaired
                    else incr resolved
                | Error e ->
                    Format.eprintf "request %d failed verification: %s@." i
                      (Client.error_to_string e);
                    incr failures))
        | Ok r ->
            print_response i r;
            incr failures
        | Error e ->
            Format.eprintf "request %d failed: %s@." i
              (Client.error_to_string e);
            incr failures)
      deltas;
    let percentile p =
      1000.0 *. Perfprof.Stats.percentile (Array.of_list !latencies) p
    in
    Format.printf
      "delta: count=%d repaired=%d resolved=%d verified=%d failures=%d \
       p50=%.3fms p95=%.3fms@."
      (List.length deltas) !repaired !resolved
      (!repaired + !resolved)
      !failures (percentile 0.50) (percentile 0.95);
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:
         "Solve, then stream incremental deltas against the daemon's \
          cached solution, verifying every repaired answer")
    Term.(
      const run $ instance_t $ sock_t $ tcp_t $ deadline_t $ priority_t
      $ no_cache_t $ req_budget_t $ no_improve_t $ count_t $ delta_seed_t
      $ repair_budget_t $ retries_t)

(* Stand-alone netfault proxy, the CLI face of Ivc_server.Netfaults:
   CI boots the daemon behind it and fires a verified burst through
   the fault plan. *)
let netproxy_cmd =
  let listen_sock_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen-socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let listen_tcp_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen-tcp" ] ~docv:"PORT"
          ~doc:"Listen on 127.0.0.1:$(docv) instead of a Unix socket.")
  in
  let plan_t =
    Arg.(
      value
      & opt string "seed=1,delay=0.1:0.002,tear=0.1"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Seeded fault plan, e.g. \
             seed=7,delay=0.2:0.002,tear=0.15,reset=0.08,stall=0.05:0.5,dup=0.08.")
  in
  let run listen_sock listen_tcp socket tcp plan =
    let module Net = Ivc_server.Netfaults in
    let listen =
      match (listen_sock, listen_tcp) with
      | Some path, None -> Srv.Unix_sock path
      | None, Some port -> Srv.Tcp ("127.0.0.1", port)
      | _ -> failwith "choose one of --listen-socket and --listen-tcp"
    in
    let upstream = addr_of socket tcp in
    let plan = Net.parse plan in
    let px = Net.start ~listen ~upstream ~plan in
    Format.printf "netproxy: %s -> %s with %s@."
      (Srv.addr_to_string listen)
      (Srv.addr_to_string upstream)
      (Net.to_string plan);
    Format.print_flush ();
    let stop = ref false in
    let on_signal _ = stop := true in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    while not !stop do
      Thread.delay 0.2
    done;
    Net.stop px;
    Format.printf "netproxy: stopped@."
  in
  Cmd.v
    (Cmd.info "netproxy"
       ~doc:"Run a seeded fault-injection proxy in front of a daemon")
    Term.(
      const run $ listen_sock_t $ listen_tcp_t $ sock_t $ tcp_t $ plan_t)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running ivc-serve daemon (solve, stats, burst)")
    [
      client_solve_cmd;
      client_ping_cmd;
      client_health_cmd;
      client_stats_cmd;
      client_shutdown_cmd;
      client_promote_cmd;
      client_burst_cmd;
      client_delta_cmd;
    ]

(* ---- save ------------------------------------------------------------------- *)

let save_cmd =
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Destination file.")
  in
  let run inst out =
    Spatial_data.Io.save out (Spatial_data.Io.instance_to_string inst);
    Format.printf "wrote %s (%s)@." out (S.describe inst)
  in
  Cmd.v (Cmd.info "save" ~doc:"Write an instance to the ivc2/ivc3 text format")
    Term.(const run $ instance_t $ out_t)

(* ---- render ------------------------------------------------------------------ *)

let render_cmd =
  let algo_t =
    Arg.(
      value & opt string "BDP"
      & info [ "algo"; "a" ] ~docv:"A" ~doc:"Coloring algorithm.")
  in
  let out_t =
    Arg.(
      value & opt string "ivc"
      & info [ "out"; "o" ] ~docv:"PREFIX"
          ~doc:
            "Output prefix; writes PREFIX-heatmap.svg and PREFIX-gantt.svg.")
  in
  let run inst algo out =
    if S.is_3d inst then failwith "render: 2D instances only";
    let a =
      match Ivc.Algo.find algo with
      | Some a -> a
      | None -> failwith ("unknown algorithm " ^ algo)
    in
    let starts = a.Ivc.Algo.run inst in
    ignore (Ivc.Coloring.assert_valid inst starts);
    Spatial_data.Io.save (out ^ "-heatmap.svg") (Ivc.Svg.heatmap inst);
    Spatial_data.Io.save (out ^ "-gantt.svg") (Ivc.Svg.gantt inst starts);
    Format.printf "wrote %s-heatmap.svg and %s-gantt.svg@." out out
  in
  Cmd.v (Cmd.info "render" ~doc:"Render an instance and a coloring as SVG")
    Term.(const run $ instance_t $ algo_t $ out_t)

(* ---- orders ------------------------------------------------------------------- *)

let orders_cmd =
  let run inst obs =
    with_obs obs @@ fun () ->
    let lb = Ivc.Bounds.combined inst in
    Format.printf "instance: %s, clique LB %d@." (S.describe inst) lb;
    List.iter
      (fun (name, order) ->
        let starts = Ivc.Greedy.color_in_order inst (order inst) in
        let mc = Ivc.Coloring.assert_valid inst starts in
        Format.printf "%-14s maxcolor %6d (%.4f of LB)@." name mc
          (Float.of_int mc /. Float.of_int (max 1 lb)))
      Ivc.Order.all
  in
  Cmd.v
    (Cmd.info "orders" ~doc:"Compare greedy vertex orderings on an instance")
    Term.(const run $ instance_t $ obs_t)

(* ---- parcolor ------------------------------------------------------------------ *)

let parcolor_cmd =
  let workers_t =
    Arg.(
      value & opt int 4 & info [ "workers"; "j" ] ~docv:"P" ~doc:"Domains.")
  in
  let run inst workers obs =
    with_obs obs @@ fun () ->
    let module P = Ivc_kernel.Par_sweep in
    let starts, stats = P.color ~workers inst in
    (* the certificate gate, not just the library's own checker *)
    let mc = Ivc_resilient.Cert.assert_ok inst starts in
    Format.printf
      "%s: %d colors with %d workers (%d tiles, %d seam cells, %d steals, \
       %.1f ms)@."
      (S.describe inst) mc stats.P.workers stats.P.tiles stats.P.seam
      stats.P.steals
      (1000.0 *. stats.P.elapsed_s)
  in
  Cmd.v
    (Cmd.info "parcolor"
       ~doc:"Deterministic tiled parallel coloring on work-stealing domains")
    Term.(const run $ instance_t $ workers_t $ obs_t)

let () =
  let doc = "Interval vertex coloring of 9-pt and 27-pt stencils" in
  let info = Cmd.info "ivc-stencil" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            color_cmd; exact_cmd; catalog_cmd; milp_cmd; reduce_cmd; stkde_cmd;
            save_cmd; render_cmd; orders_cmd; parcolor_cmd; fuzz_cmd;
            client_cmd; netproxy_cmd;
          ]))
