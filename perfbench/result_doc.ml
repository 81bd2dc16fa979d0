(* What one workload run produced: operation counts, the checks that
   failed, and the metric values, printed as the result line. *)

module Json = Ivc_obs.Json
module Metrics = Perfbench.Metrics

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (** failed output checks, newest first *)
  values : (string, float) Hashtbl.t;
}

let create () = { attempted = 0; failed = 0; wrong = []; values = Hashtbl.create 64 }
let set t name v = Hashtbl.replace t.values name v
let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.values name)

let lock = Mutex.create ()

(* Record a failed output check; safe from any domain. *)
let wrong t fmt =
  Printf.ksprintf
    (fun m ->
      Mutex.protect lock (fun () ->
          if List.length t.wrong < 20 then Printf.eprintf "check failed: %s\n%!" m;
          t.wrong <- m :: t.wrong))
    fmt

let sane v = if Float.is_finite v then v else 0.0

(* The result line: every end-to-end metric (untraced runs) or every
   per-layer metric (traced runs), each with its unit. An end-to-end
   metric a workload did not produce is a bug in the benchmark. *)
let to_json t ~traced =
  let names =
    List.map
      (fun (n, u, _) -> (n, u))
      (if traced then Metrics.per_layer else Metrics.end_to_end)
  in
  let metrics =
    List.map
      (fun (name, u) ->
        let v =
          match Hashtbl.find_opt t.values name with
          | Some v -> sane v
          | None when traced -> 0.0
          | None -> failwith ("workload did not report " ^ name)
        in
        (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
      names
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.wrong = []));
         ("attempted", Json.Num (Float.of_int (max 1 t.attempted)));
         ("failed", Json.Num (Float.of_int t.failed));
         ("metrics", Json.Obj metrics);
       ])

(* The end-to-end metrics every workload reports, from its operation
   latencies (failures as [Stats.failed]) and result counts. *)
let ceiling_ms = 1e6

let latency_metrics t ~latencies_s =
  let ms = Array.map (fun s -> s *. 1e3) latencies_s in
  let p50 = Perfbench.Stats.percentile ms 0.50 in
  let p99 = Perfbench.Stats.percentile ms 0.99 in
  set t "p50_ms" (Perfbench.Stats.finite ~ceiling:ceiling_ms p50);
  set t "p99_ms" (Perfbench.Stats.finite ~ceiling:ceiling_ms p99);
  Printf.eprintf "latency: p50 over %d ops; tail reported at p%.2f over %d ops\n%!"
    p50.Perfbench.Stats.n (100.0 *. p99.Perfbench.Stats.level) p99.Perfbench.Stats.n

let finish_counts t ~certified =
  set t "certified_frac" (Float.of_int certified /. Float.of_int (max 1 t.attempted));
  set t "failed_frac" (Float.of_int t.failed /. Float.of_int (max 1 t.attempted))
