(* `bench json` — machine-readable benchmark output for CI.

   Runs the catalog at CI-friendly sizes and writes a BENCH_PR.json
   document: per-instance, per-algorithm maxcolor and best-of-N
   runtime, plus the observability counters collected during the run.
   With --baseline FILE the run is also a regression gate: any
   algorithm whose maxcolor on any shared instance exceeds the recorded
   baseline value fails the process. Catalog runtimes are reported but
   not gated — CI runners are too noisy for per-algorithm wall times.
   Kernel throughput IS gated: the document embeds the Perf sweep
   measurements and --perf-baseline FILE fails the process if any
   shared row's vertices/s drops more than 20% below the committed
   (already conservative) floor. Invalid colorings abort inside
   Common.run_catalog.

   Schema 4 adds the per-instance portfolio "resumed" flag and the
   snapshot-write counters to the robustness summary, so the kill-
   resume CI job's artifacts are self-describing.

   Schemas 5 and 6 add the "server" and "chaos" blocks: a client
   burst against an in-process daemon, plain and through the
   netfaults proxy.

   Schema 7 adds the "ooc" block inside "perf" (out-of-core tiled
   sweep: vertices/s, spill and halo bytes, resident-tile high-water,
   resume count) and the bytes_moved / peak_rss_bytes columns on every
   throughput row.

   Schema 8 adds the "incremental" block: repair latency percentiles
   of seeded 1-cell bumps on the 512x512 GLL grid against the
   full-resolve fallback baseline, plus the p50 speedup (see
   incremental_bench.ml). Reported, not gated.

   Schema 9 drops the "server" and "chaos" blocks: perfbench's serve
   and stream workloads, the chaos oracle and the chaos-smoke CI job
   measure and check those paths. *)

module Cat = Spatial_data.Catalog
module S = Ivc_grid.Stencil
module Json = Ivc_obs.Json

let schema_version = 9

(* Deadline given to the resilient portfolio on each instance; small, so
   the bench stays CI-friendly — hard instances report heuristic or
   fallback provenance rather than stalling the job. *)
let portfolio_deadline_s = 0.25

(* Unique, order-independent instance ids: the catalog description,
   suffixed when a description repeats. *)
let ids_of_entries entries =
  let seen = Hashtbl.create 64 in
  List.map
    (fun (e : Cat.entry) ->
      let d = Cat.describe e in
      let k = Option.value ~default:0 (Hashtbl.find_opt seen d) in
      Hashtbl.replace seen d (k + 1);
      if k = 0 then d else Printf.sprintf "%s#%d" d k)
    entries

(* Run the resilient portfolio driver on one instance; a certificate
   rejection here means the driver returned (or would have returned) a
   coloring its own gate cannot certify — that is a correctness bug, so
   the bench run fails loudly rather than recording bad numbers. *)
let portfolio_of ~id inst =
  match
    Ivc_resilient.Driver.solve ~deadline_s:portfolio_deadline_s inst
  with
  | Ok o -> o
  | Error e ->
      Format.printf "bench json: certificate gate rejected %s: %s@." id
        (Ivc_resilient.Cert.to_string e);
      exit 1

let document ~scale ~subsample ~reps ~perf ~incremental runs ids portfolios =
  let algo_names = Array.to_list Common.algo_names in
  let instances =
    List.map2
      (fun ((r : Common.run), (p : Ivc_resilient.Driver.outcome)) id ->
        let per_algo f =
          Json.Obj (List.mapi (fun i name -> (name, f i)) algo_names)
        in
        Json.Obj
          [
            ("id", Json.Str id);
            ("n", Json.Num (Float.of_int (S.n_vertices r.Common.entry.Cat.inst)));
            ("clique_lb", Json.Num (Float.of_int r.Common.clique_lb));
            ( "maxcolor",
              per_algo (fun i -> Json.Num (Float.of_int r.Common.maxcolors.(i)))
            );
            ( "runtime_ms",
              per_algo (fun i -> Json.Num (1000.0 *. r.Common.runtimes.(i))) );
            ( "portfolio",
              Json.Obj
                [
                  ( "provenance",
                    Json.Str
                      (Ivc_resilient.Driver.provenance_to_string
                         p.Ivc_resilient.Driver.provenance) );
                  ( "maxcolor",
                    Json.Num (Float.of_int p.Ivc_resilient.Driver.maxcolor) );
                  ( "lower_bound",
                    Json.Num (Float.of_int p.Ivc_resilient.Driver.lower_bound)
                  );
                  ( "proven_optimal",
                    Json.Bool p.Ivc_resilient.Driver.proven_optimal );
                  ( "runtime_ms",
                    Json.Num (1000.0 *. p.Ivc_resilient.Driver.elapsed_s) );
                  ("resumed", Json.Bool p.Ivc_resilient.Driver.resumed);
                ] );
          ])
      (List.combine runs portfolios)
      ids
  in
  let robustness =
    let count pred =
      Json.Num (Float.of_int (List.length (List.filter pred portfolios)))
    in
    Json.Obj
      [
        ("deadline_s", Json.Num portfolio_deadline_s);
        ( "exact",
          count (fun (p : Ivc_resilient.Driver.outcome) ->
              p.Ivc_resilient.Driver.provenance = Ivc_resilient.Driver.Exact)
        );
        ( "heuristic",
          count (fun (p : Ivc_resilient.Driver.outcome) ->
              match p.Ivc_resilient.Driver.provenance with
              | Ivc_resilient.Driver.Heuristic _ -> true
              | _ -> false) );
        ( "fallback",
          count (fun (p : Ivc_resilient.Driver.outcome) ->
              p.Ivc_resilient.Driver.provenance = Ivc_resilient.Driver.Fallback)
        );
        ( "deadline_expired",
          Json.Num
            (Float.of_int
               (Ivc_obs.Counter.value
                  (Ivc_obs.Counter.make "resilient.deadline_expired"))) );
        ( "cert_rejects",
          Json.Num
            (Float.of_int
               (Ivc_obs.Counter.value
                  (Ivc_obs.Counter.make "resilient.cert_reject"))) );
        ( "snapshots_written",
          Json.Num
            (Float.of_int
               (Ivc_obs.Counter.value
                  (Ivc_obs.Counter.make "persist.snapshots_written"))) );
        ( "snapshot_bytes",
          Json.Num
            (Float.of_int
               (Ivc_obs.Counter.value
                  (Ivc_obs.Counter.make "persist.snapshot_bytes"))) );
        ( "resumes",
          Json.Num
            (Float.of_int
               (Ivc_obs.Counter.value
                  (Ivc_obs.Counter.make "persist.resumes"))) );
      ]
  in
  let summary =
    Json.Obj
      (List.mapi
         (fun i name ->
           let total_ms =
             List.fold_left
               (fun acc (r : Common.run) -> acc +. (1000.0 *. r.Common.runtimes.(i)))
               0.0 runs
           in
           let sum_mc =
             List.fold_left
               (fun acc (r : Common.run) -> acc + r.Common.maxcolors.(i))
               0 runs
           in
           ( name,
             Json.Obj
               [
                 ("total_ms", Json.Num total_ms);
                 ("sum_maxcolor", Json.Num (Float.of_int sum_mc));
                 ("instances", Json.Num (Float.of_int (List.length runs)));
               ] ))
         algo_names)
  in
  Json.Obj
    [
      ("schema", Json.Num (Float.of_int schema_version));
      ("suite", Json.Str "ivc-stencil-bench");
      ( "config",
        Json.Obj
          [
            ("scale", Json.Num scale);
            ("subsample", Json.Num (Float.of_int subsample));
            ("reps", Json.Num (Float.of_int reps));
          ] );
      ("algorithms", Json.List (List.map (fun n -> Json.Str n) algo_names));
      ("instances", Json.List instances);
      ("summary", summary);
      ("robustness", robustness);
      ("perf", Perf.to_json perf);
      ("incremental", incremental);
      ("metrics", Ivc_obs.Export.metrics ());
    ]

(* ---- baseline comparison -------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [id -> algo -> maxcolor] of a bench document. *)
let maxcolor_index doc =
  let tbl = Hashtbl.create 64 in
  (match Json.member "instances" doc with
  | Some (Json.List instances) ->
      List.iter
        (fun inst ->
          match (Json.member "id" inst, Json.member "maxcolor" inst) with
          | Some (Json.Str id), Some (Json.Obj algos) ->
              List.iter
                (fun (algo, v) -> Hashtbl.replace tbl (id, algo) (Json.to_float v))
                algos
          | _ -> failwith "bench json: malformed instance entry")
        instances
  | _ -> failwith "bench json: document has no instances list");
  tbl

let check_against_baseline ~baseline_path doc =
  let baseline = Json.parse (read_file baseline_path) in
  let base = maxcolor_index baseline in
  let cur = maxcolor_index doc in
  let regressions = ref [] in
  let compared = ref 0 in
  Hashtbl.iter
    (fun key base_mc ->
      match Hashtbl.find_opt cur key with
      | None -> ()
      | Some cur_mc ->
          incr compared;
          if cur_mc > base_mc then regressions := (key, base_mc, cur_mc) :: !regressions)
    base;
  if !compared = 0 then begin
    Format.printf
      "bench json: baseline %s shares no instances with this run@." baseline_path;
    exit 1
  end;
  match List.sort compare !regressions with
  | [] ->
      Format.printf "bench json: no quality regressions (%d comparisons vs %s)@."
        !compared baseline_path
  | regs ->
      List.iter
        (fun ((id, algo), base_mc, cur_mc) ->
          Format.printf "REGRESSION %s on %s: maxcolor %.0f -> %.0f@." algo id
            base_mc cur_mc)
        regs;
      Format.printf "bench json: %d quality regressions vs %s@."
        (List.length regs) baseline_path;
      exit 1

(* ---- entry point ----------------------------------------------------- *)

let run ?(out = "BENCH_PR.json") ?baseline ?perf_baseline ?(scale = 0.05)
    ?(subsample = 8) ?(reps = 3) () =
  Ivc_obs.reset ();
  Ivc_obs.set_enabled true;
  let entries =
    Cat.entries_2d ~scale ~subsample () @ Cat.entries_3d ~scale ~subsample ()
  in
  Format.printf "bench json: %d instances (scale %g, subsample 1/%d, best of %d)@."
    (List.length entries) scale subsample reps;
  let ids = ids_of_entries entries in
  let runs = Common.run_catalog ~reps entries in
  let portfolios =
    List.map2
      (fun (e : Cat.entry) id -> portfolio_of ~id e.Cat.inst)
      entries ids
  in
  let perf = Perf.measure ~reps () in
  let incremental = Incremental_bench.summary () in
  let doc =
    document ~scale ~subsample ~reps ~perf ~incremental runs ids portfolios
  in
  Ivc_obs.set_enabled false;
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Format.printf "bench json: wrote %s@." out;
  Option.iter (fun path -> check_against_baseline ~baseline_path:path doc) baseline;
  Option.iter
    (fun path -> Perf.check_against_baseline ~baseline_path:path perf)
    perf_baseline

(* Minimal flag parsing in the style of bench/main.ml:
   json [--out FILE] [--baseline FILE] [--perf-baseline FILE]
        [--scale S] [--subsample K] [--reps N] *)
let main args =
  let out = ref "BENCH_PR.json" in
  let baseline = ref None in
  let perf_baseline = ref None in
  let scale = ref 0.05 in
  let subsample = ref 8 in
  let reps = ref 3 in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse rest
    | "--perf-baseline" :: v :: rest ->
        perf_baseline := Some v;
        parse rest
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--subsample" :: v :: rest ->
        subsample := int_of_string v;
        parse rest
    | "--reps" :: v :: rest ->
        reps := int_of_string v;
        parse rest
    | a :: _ -> failwith ("bench json: unknown argument " ^ a)
  in
  parse args;
  run ~out:!out ?baseline:!baseline ?perf_baseline:!perf_baseline ~scale:!scale
    ~subsample:!subsample ~reps:!reps ()
