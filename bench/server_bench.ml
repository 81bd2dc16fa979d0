(* Self-hosted serving benchmark for `bench json`.

   Boots an in-process Ivc_server on a throwaway Unix socket, fires a
   short concurrent client burst at it (mixed 2D/3D, every third
   request repeating the first instance so the fingerprint cache gets
   exercised), and folds the result into the bench document: request
   count, latency percentiles, cache hit rate and shed counts. The
   burst is sized for CI — small instances, bounded exact budget, no
   improvement stage — so the whole block costs well under a second.
   Every solution is re-certified client-side; an uncertified answer
   fails the bench run loudly, like any other correctness bug.

   [chaos_summary] is the same idea under fire: the burst is routed
   through a seeded Netfaults proxy (delays, torn frames, resets,
   stalls, corrupted bytes) and issued with the retrying
   [Client.solve_verified], reporting availability, the degraded
   fraction and the p99 latency under the fixed fault plan. *)

module S = Ivc_grid.Stencil
module Server = Ivc_server.Server
module Proto = Ivc_server.Proto
module Client = Ivc_server.Client
module Net = Ivc_server.Netfaults
module Json = Ivc_obs.Json

let total_requests = 12
let connections = 4
let repeat_every = 3

let opts =
  {
    Proto.deadline_s = Some 10.0;
    priority = 10;
    budget = Some 200;
    improve = false;
    use_cache = true;
  }

let inst_of i =
  let i = if i mod repeat_every = 0 then 0 else i in
  let rng = Spatial_data.Rng.create (4242 + (1000 * i)) in
  let f () = Spatial_data.Rng.int rng 6 in
  if i mod 2 = 1 then S.init3 ~x:5 ~y:5 ~z:3 (fun _ _ _ -> f ())
  else S.init2 ~x:10 ~y:10 (fun _ _ -> f ())

let percentile latencies p =
  1000.0 *. Perfprof.Stats.percentile (Array.of_list latencies) p

let summary () =
  let path = Filename.temp_file "ivc_bench" ".sock" in
  let cfg =
    {
      (Server.default_config (Server.Unix_sock path)) with
      Server.workers = 2;
      queue_capacity = 16;
      (* smaller than the burst's 9 distinct instances, so both the
         solution cache and the repair table must evict — the burst
         asserts those counters below *)
      cache_capacity = 4;
      repair_capacity = 4;
    }
  in
  let srv = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let lock = Mutex.create () in
  let next = ref 0 in
  let solved = ref 0 and cache_hits = ref 0 and sheds = ref 0 in
  let errors = ref 0 in
  let latencies = ref [] in
  let note f =
    Mutex.lock lock;
    f ();
    Mutex.unlock lock
  in
  let worker () =
    match Client.connect (Server.Unix_sock path) with
    | Error _ -> note (fun () -> errors := !errors + 1)
    | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let rec go () =
          let i =
            Mutex.lock lock;
            let i = !next in
            next := i + 1;
            Mutex.unlock lock;
            i
          in
          if i < total_requests then begin
            let inst = inst_of i in
            let t0 = Ivc_obs.now_ns () in
            (match Client.solve c ~opts inst with
            | Ok (Proto.Solution s) ->
                let dt = Ivc_obs.elapsed_s ~since:t0 in
                ignore (Ivc_resilient.Cert.assert_ok inst s.Proto.starts);
                note (fun () ->
                    incr solved;
                    if s.Proto.cache_hit then incr cache_hits;
                    latencies := dt :: !latencies)
            | Ok (Proto.Shed _) -> note (fun () -> incr sheds)
            | Ok _ | Error _ -> note (fun () -> incr errors));
            go ()
          end
        in
        go ()
  in
  let threads = List.init connections (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  if !errors > 0 then begin
    Format.printf "bench json: %d server burst requests errored@." !errors;
    exit 1
  end;
  (* the eviction/compaction counters must be live in the stats
     document: 9 distinct instances through capacity-4 tables *)
  let stat_int path =
    let doc =
      match Client.connect (Server.Unix_sock path) with
      | Error e ->
          Format.printf "bench json: stats connect failed: %s@."
            (Client.error_to_string e);
          exit 1
      | Ok c -> (
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          match Client.stats c with
          | Ok json -> Json.parse json
          | Error e ->
              Format.printf "bench json: stats failed: %s@."
                (Client.error_to_string e);
              exit 1)
    in
    fun keys ->
      let rec dig v = function
        | [] -> Json.to_float v
        | k :: rest -> (
            match Json.member k v with
            | Some v -> dig v rest
            | None ->
                Format.printf "bench json: stats missing %s@."
                  (String.concat "." keys);
                exit 1)
      in
      int_of_float (dig doc ("server" :: keys))
  in
  let stat = stat_int path in
  let cache_evictions = stat [ "cache"; "evictions" ] in
  let repair_evictions = stat [ "repair"; "evictions" ] in
  let repair_compactions = stat [ "repair"; "compactions" ] in
  if cache_evictions <= 0 then begin
    Format.printf "bench json: cache never evicted under pressure@.";
    exit 1
  end;
  if repair_evictions <= 0 then begin
    Format.printf "bench json: repair table never evicted under pressure@.";
    exit 1
  end;
  if repair_compactions < 0 then begin
    Format.printf "bench json: negative repair compaction count@.";
    exit 1
  end;
  let hit_rate =
    if !solved = 0 then 0.0
    else Float.of_int !cache_hits /. Float.of_int !solved
  in
  Json.Obj
    [
      ("requests", Json.Num (Float.of_int total_requests));
      ("connections", Json.Num (Float.of_int connections));
      ("workers", Json.Num (Float.of_int cfg.Server.workers));
      ("solved", Json.Num (Float.of_int !solved));
      ("cache_hits", Json.Num (Float.of_int !cache_hits));
      ("cache_hit_rate", Json.Num hit_rate);
      ("sheds", Json.Num (Float.of_int !sheds));
      ("p50_ms", Json.Num (percentile !latencies 0.50));
      ("p95_ms", Json.Num (percentile !latencies 0.95));
      ("cache_evictions", Json.Num (Float.of_int cache_evictions));
      ("repair_evictions", Json.Num (Float.of_int repair_evictions));
      ("repair_compactions", Json.Num (Float.of_int repair_compactions));
    ]

(* ---- chaos block ------------------------------------------------------ *)

let chaos_plan =
  "seed=4242,delay=0.2:0.001,tear=0.15,reset=0.08,stall=0.05:0.02,dup=0.08"

let chaos_requests = 16
let chaos_connections = 4

(* The chaos burst goes through the proxy with the retrying verified
   client: a request only counts as failed when every attempt was
   eaten by the fault plan. Availability under the fixed plan is the
   headline number; corrupted-but-decodable answers never surface
   because solve_verified re-certifies (a Corrupt would be retried,
   and a surviving one would land in failures, not solved). *)
let chaos_summary () =
  let up = Filename.temp_file "ivc_bench_up" ".sock" in
  let front = Filename.temp_file "ivc_bench_chaos" ".sock" in
  let cfg =
    {
      (Server.default_config (Server.Unix_sock up)) with
      Server.workers = 2;
      queue_capacity = 16;
      cache_capacity = 16;
      idle_timeout_s = 5.0;
      io_timeout_s = 2.0;
    }
  in
  let srv = Server.start cfg in
  let plan = Net.parse chaos_plan in
  let proxy =
    Net.start
      ~listen:(Server.Unix_sock front)
      ~upstream:(Server.Unix_sock up) ~plan
  in
  Fun.protect
    ~finally:(fun () ->
      Net.stop proxy;
      Server.stop srv;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ up; front ])
  @@ fun () ->
  let lock = Mutex.create () in
  let next = ref 0 in
  let solved = ref 0 and degraded = ref 0 and failures = ref 0 in
  let latencies = ref [] in
  let note f =
    Mutex.lock lock;
    f ();
    Mutex.unlock lock
  in
  let worker widx =
    let retry =
      {
        Client.default_retry with
        Client.attempts = 5;
        base_delay_s = 0.01;
        max_delay_s = 0.2;
        seed = 4242 + widx;
        connect_timeout_s = 5.0;
        (* short enough that an attempt whose response length field
           was corrupted (a silent starvation: the client would wait
           for body bytes that never come) fails fast and retries *)
        request_timeout_s = Some 3.0;
      }
    in
    let rec go () =
      let i =
        Mutex.lock lock;
        let i = !next in
        next := i + 1;
        Mutex.unlock lock;
        i
      in
      if i < chaos_requests then begin
        let inst = inst_of i in
        let t0 = Ivc_obs.now_ns () in
        (match
           Client.solve_verified ~retry ~addr:(Server.Unix_sock front) ~opts
             inst
         with
        | Ok (Proto.Solution s) ->
            let dt = Ivc_obs.elapsed_s ~since:t0 in
            note (fun () ->
                incr solved;
                if s.Proto.degraded <> None then incr degraded;
                latencies := dt :: !latencies)
        | Ok _ | Error _ -> note (fun () -> incr failures));
        go ()
      end
    in
    go ()
  in
  let threads = List.init chaos_connections (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  let availability = Float.of_int !solved /. Float.of_int chaos_requests in
  let degraded_fraction =
    if !solved = 0 then 0.0 else Float.of_int !degraded /. Float.of_int !solved
  in
  Json.Obj
    [
      ("plan", Json.Str (Net.to_string plan));
      ("requests", Json.Num (Float.of_int chaos_requests));
      ("connections", Json.Num (Float.of_int chaos_connections));
      ("solved", Json.Num (Float.of_int !solved));
      ("availability", Json.Num availability);
      ("degraded_fraction", Json.Num degraded_fraction);
      ("failures", Json.Num (Float.of_int !failures));
      ("p99_ms", Json.Num (percentile !latencies 0.99));
    ]
