(* The metrics the benchmark reports, with their units. End-to-end
   metrics come from untraced runs, per-layer metrics from the traced
   run; BENCHMARK.json lists the same names (run.py checks). *)

type better = Lower | Higher

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("solve_s", "s", Lower);
    ("maxcolor_over_lb", "ratio", Lower);
    ("mvps", "Mvertices/s", Higher);
    ("p50_ms", "ms", Lower);
    ("p99_ms", "ms", Lower);
    ("goodput_rps", "req/s", Higher);
    ("certified_frac", "ratio", Higher);
    ("peak_rss_mb", "MiB", Lower);
  ]

let algos = [ "GLL"; "GZO"; "GLF"; "GKF"; "SGK"; "BD"; "BDP" ]

let per_layer =
  [
    (* kernel and sweeps *)
    ("kernel.gll_mvps", "Mvertices/s", Higher);
    ("kernel.tiles_mvps", "Mvertices/s", Higher);
    ("kernel.par1_mvps", "Mvertices/s", Higher);
    ("kernel.par2_mvps", "Mvertices/s", Higher);
    ("kernel.alloc_b_per_vertex", "B", Lower);
    ("kernel.seam_frac", "ratio", Lower);
    ("kernel.steal_ratio", "ratio", Higher);
    ("kernel.bitset_ratio", "ratio", Higher);
    (* out-of-core *)
    ("ooc.mvps", "Mvertices/s", Higher);
    ("ooc.solve_s", "s", Lower);
    ("ooc.verify_s", "s", Lower);
    ("ooc.spill_mb", "MiB", Lower);
    ("ooc.halo_hit_ratio", "ratio", Higher);
    ("ooc.resident_tiles_hw", "count", Lower);
    ("ooc.peak_rss_mb", "MiB", Lower);
  ]
  @ List.map (fun a -> ("core." ^ a ^ "_s", "s", Lower)) algos
  @ [
      ("core.clique_lb_s", "s", Lower);
      (* portfolio and certificate *)
      ("resilient.fallback_s", "s", Lower);
      ("resilient.heuristics_s", "s", Lower);
      ("resilient.improve_s", "s", Lower);
      ("resilient.cert_s", "s", Lower);
      ("resilient.proven_optimal_frac", "ratio", Higher);
      (* exact *)
      ("exact.solve_s", "s", Lower);
      ("exact.cp_revisions", "count", Lower);
      ("exact.cp_nodes", "count", Lower);
      ("exact.bb_nodes", "count", Lower);
      ("exact.revisions_per_cp_node", "ratio", Lower);
      (* request path *)
      ("server.request_mean_ms", "ms", Lower);
      ("service.job_mean_ms", "ms", Lower);
      ("server.delta_mean_ms", "ms", Lower);
      ("server.delta_repaired_ratio", "ratio", Higher);
      ("server.obs_events", "count", Lower);
      (* wire *)
      ("proto.reply_kb", "KiB", Lower);
      ("proto.encode_reply_ms", "ms", Lower);
      ("proto.decode_reply_ms", "ms", Lower);
      ("proto.encode_request_ms", "ms", Lower);
      ("proto.decode_request_ms", "ms", Lower);
      ("server.fingerprint_ms", "ms", Lower);
      ("client.verify_ms", "ms", Lower);
      ("client.roundtrip_ms", "ms", Lower);
      ("client.repaired_p50_ms", "ms", Lower);
      ("client.resolved_p50_ms", "ms", Lower);
      ("client.unaccounted_ms", "ms", Lower);
      (* journal *)
      ("wal.append_p50_ms", "ms", Lower);
      ("wal.append_p99_ms", "ms", Lower);
      ("wal.op_kb", "KiB", Lower);
      ("wal.records", "count", Lower);
      (* incremental *)
      ("incremental.apply_p50_us", "us", Lower);
      ("incremental.apply_p99_us", "us", Lower);
      ("incremental.repaired_ratio", "ratio", Higher);
      ("incremental.front_cells_mean", "count", Lower);
      ("incremental.create_ms", "ms", Lower);
      (* the run itself *)
      ("failed_frac", "ratio", Lower);
      ("trace.overhead_frac", "ratio", Lower);
      ("trace.spans", "count", Lower);
    ]

let unit_of name =
  List.find_map
    (fun (n, u, _) -> if n = name then Some u else None)
    (end_to_end @ per_layer)

let better_to_string = function Lower -> "lower" | Higher -> "higher"
