(* The benchmark harness binary. Usage:

     pb --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH
        [--work DIR]
     pb --list-metrics

   Untraced runs print the end-to-end metrics; a traced run first makes
   an untraced pass, then the traced pass with [Ivc_obs] enabled, and
   prints the per-layer metrics plus the tracing overhead. The last
   stdout line is the result JSON object. *)

module R = Result_doc

let workloads =
  [
    ("catalog", W_catalog.run);
    ("grids", W_grids.run);
    ("serve", W_serve.run);
    ("stream", W_stream.run);
  ]

let usage () =
  prerr_endline
    "usage: pb --workload catalog|grids|serve|stream --seed N --seconds S \
     --trace 0|1 --serve-bin PATH [--work DIR]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--list-metrics" ] then begin
    let show kind =
      List.iter (fun (n, u, b) ->
          Printf.printf "%s %s %s %s\n" kind n u (Perfbench.Metrics.better_to_string b))
    in
    show "end_to_end" Perfbench.Metrics.end_to_end;
    show "per_layer" Perfbench.Metrics.per_layer;
    exit 0
  end;
  let get k = try Some (List.nth args (1 + Option.get (List.find_index (( = ) k) args))) with _ -> None in
  let need k = match get k with Some v -> v | None -> usage () in
  let name = need "--workload" in
  let seed = int_of_string (need "--seed") in
  let seconds = float_of_string (need "--seconds") in
  let traced = need "--trace" = "1" in
  let serve_bin = need "--serve-bin" in
  let work = Option.value ~default:".bench_work" (get "--work") in
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let ctx = { Proc.seed; seconds; traced = false; work; serve_bin } in
  let result =
    if not traced then fst (run ctx)
    else begin
      let _, plain = run ctx in
      Gc.full_major ();
      Ivc_obs.reset ();
      Ivc_obs.set_enabled true;
      let r, traced_headline = run { ctx with Proc.traced = true } in
      Ivc_obs.set_enabled false;
      let overhead =
        match (plain, traced_headline) with
        | (_, a) :: _, (_, b) :: _ when a > 0.0 -> (b /. a) -. 1.0
        | _ -> 0.0
      in
      R.set r "trace.overhead_frac" overhead;
      let spans =
        match Ivc_obs.Json.member "traceEvents" (Ivc_obs.Export.chrome_trace ()) with
        | Some (Ivc_obs.Json.List l) -> List.length l
        | _ -> 0
      in
      R.set r "trace.spans" (Float.of_int spans);
      let path = Filename.concat work (Printf.sprintf "trace-%s-%d.json" name seed) in
      Ivc_obs.Export.write_trace path;
      (match (plain, traced_headline) with
      | (k, a) :: _, (_, b) :: _ ->
          Printf.eprintf "trace: %s untraced %.4g, traced %.4g (%+.1f%%)\n%!" k a b
            (100.0 *. overhead)
      | _ -> ());
      Printf.eprintf "trace: %d spans written to %s\n%!" spans path;
      r
    end
  in
  print_endline (R.to_json result ~traced)
