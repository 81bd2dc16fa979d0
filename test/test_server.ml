(* The serving layer: wire-protocol codecs, frame transport, and the
   daemon end to end — admission control, the fingerprint cache,
   per-request deadlines, and connection survival under damaged
   frames.

   The end-to-end tests each boot a private server on a Unix socket
   in the system temp directory and tear it down in all paths; the
   slow requests they use to occupy workers are 16x16 instances with
   the improvement stage enabled, which reliably burns its whole
   deadline (the exact stage cannot close that instance quickly). *)

module S = Ivc_grid.Stencil
module Proto = Ivc_server.Proto
module Server = Ivc_server.Server
module Client = Ivc_server.Client
module Net = Ivc_server.Netfaults
module Supervise = Ivc_server.Supervise
module Replica = Ivc_server.Replica
module Codec = Ivc_persist.Codec
module Cert = Ivc_resilient.Cert
module D = Ivc_incremental.Delta
module Snapshot = Ivc_persist.Snapshot

let contains hay needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
  in
  at 0

let same_inst a b =
  (a : S.t).dims = (b : S.t).dims && (a : S.t).w = (b : S.t).w

let fast_opts =
  {
    Proto.deadline_s = Some 5.0;
    priority = 10;
    budget = Some 200;
    improve = false;
    use_cache = true;
  }

(* Burns its whole deadline: on [hard_inst] (6400 vertices) the
   improvement stage alone outlasts any deadline the tests use, so a
   worker running these options is reliably busy until the token
   expires. *)
let slow_opts seconds =
  {
    Proto.deadline_s = Some seconds;
    priority = 10;
    budget = None;
    improve = true;
    use_cache = false;
  }

let small_inst = Util.random_inst2 ~seed:7 ~x:8 ~y:8 ~bound:4
let hard_inst = Util.random_inst2 ~seed:42 ~x:80 ~y:80 ~bound:200

(* ---- body codecs ------------------------------------------------------ *)

let roundtrip_request req =
  match Proto.decode_request (Proto.encode_request req) with
  | Error (_, m) -> Alcotest.failf "request did not round-trip: %s" m
  | Ok got -> (
      match (req, got) with
      | ( Proto.Solve { inst = ia; opts = oa },
          Proto.Solve { inst = ib; opts = ob } ) ->
          Alcotest.(check bool) "instance round-trips" true (same_inst ia ib);
          Alcotest.(check bool) "options round-trip" true (oa = ob)
      | a, b -> Alcotest.(check bool) "request round-trips" true (a = b))

let test_request_roundtrips () =
  roundtrip_request Proto.Ping;
  roundtrip_request Proto.Stats;
  roundtrip_request Proto.Shutdown;
  roundtrip_request
    (Proto.Solve { inst = small_inst; opts = Proto.default_solve_options });
  roundtrip_request
    (Proto.Solve
       {
         inst = Util.random_inst3 ~seed:3 ~x:3 ~y:4 ~z:2 ~bound:6;
         opts =
           {
             Proto.deadline_s = Some 0.25;
             priority = -3;
             budget = Some 1234;
             improve = false;
             use_cache = false;
           };
       });
  (* v3 delta requests: every delta shape, with and without a budget *)
  roundtrip_request
    (Proto.Delta
       { fp = 0x1234_abcdL; delta = D.Bump { v = 3; dw = -2 }; budget = Some 50 });
  roundtrip_request
    (Proto.Delta
       {
         fp = Int64.min_int;
         delta = D.Batch [| (0, 2); (7, -1); (0, 3) |];
         budget = None;
       });
  roundtrip_request
    (Proto.Delta
       {
         fp = -1L;
         delta = D.Extend { slabs = 2; w = [| 1; 0; 3; 2; 2; 0 |] };
         budget = None;
       })

let roundtrip_response resp =
  match Proto.decode_response (Proto.encode_response resp) with
  | Error m -> Alcotest.failf "response did not round-trip: %s" m
  | Ok got -> Alcotest.(check bool) "response round-trips" true (resp = got)

let test_response_roundtrips () =
  roundtrip_response (Proto.Pong { version = Proto.version });
  List.iter
    (fun degraded ->
      roundtrip_response
        (Proto.Solution
           {
             Proto.starts = [| 0; 3; 7; 12 |];
             maxcolor = 14;
             lower_bound = 12;
             provenance = "heuristic:BDP";
             proven_optimal = false;
             elapsed_s = 0.125;
             cache_hit = true;
             resumed = true;
             degraded;
             fingerprint = 0xdeadbeefL;
           }))
    [ None; Some Proto.Shrunk_budget; Some Proto.Heuristic_only ];
  List.iter
    (fun code ->
      roundtrip_response
        (Proto.Shed { code; depth = 5; message = "busy" }))
    [ Proto.Queue_full; Proto.Too_large; Proto.Expired_in_queue ];
  List.iter
    (fun code ->
      roundtrip_response (Proto.Error { code; message = "boom" }))
    [
      Proto.Bad_frame; Proto.Bad_version; Proto.Bad_request;
      Proto.Cert_failed; Proto.Internal; Proto.Conn_timeout;
      Proto.Unknown_fingerprint; Proto.Not_primary;
    ];
  roundtrip_response (Proto.Stats_reply { json = {|{"server":{}}|} });
  roundtrip_response Proto.Shutting_down;
  roundtrip_request Proto.Health;
  List.iter
    (fun brownout ->
      List.iter
        (fun role ->
          roundtrip_response
            (Proto.Health_reply
               {
                 Proto.ready = true;
                 draining = false;
                 queue_depth = 3;
                 running = 2;
                 connections = 7;
                 brownout;
                 uptime_s = 12.5;
                 role;
                 applied_seq = 41;
                 replication_lag = 3;
                 last_scrub_s = 7.25;
                 quarantined = 1;
               }))
        [ Proto.Primary; Proto.Standby ])
    [ None; Some Proto.Shrunk_budget; Some Proto.Heuristic_only ];
  (* v4 replication messages *)
  roundtrip_request (Proto.Replicate { from_seq = 17 });
  roundtrip_request Proto.Promote;
  roundtrip_response (Proto.Op { seq = 3; head = 9; payload = "op-bytes" });
  roundtrip_response (Proto.Repl_heartbeat { head = 12 });
  roundtrip_response (Proto.Promoted { applied_seq = 12 });
  (* v5 patch replies, empty and not *)
  List.iter
    (fun (cells, values) ->
      roundtrip_response
        (Proto.Patch
           {
             Proto.base_fp = 0x1234L;
             fingerprint = Int64.min_int;
             n = 40;
             cells;
             values;
             digest = -77;
             maxcolor = 9;
             provenance = "repaired(front=3,waves=2)";
             elapsed_s = 0.0005;
           }))
    [ ([||], [||]); ([| 0; 5; 39 |], [| 3; -1; 12 |]) ]

(* ---- patch application ------------------------------------------------ *)

let delta_reply ~fp starts =
  Proto.delta_solution ~starts ~maxcolor:0 ~provenance:"resolved"
    ~elapsed_s:0.0 ~fingerprint:fp

let patch_of ~base_fp ~fp ~before after =
  let n = Array.length after in
  let old v = if v < Array.length before then before.(v) else -1 in
  let cells =
    Array.of_list (List.filter (fun v -> old v <> after.(v)) (List.init n Fun.id))
  in
  {
    Proto.base_fp;
    fingerprint = fp;
    n;
    cells;
    values = Array.map (fun v -> after.(v)) cells;
    digest = Ivc_incremental.Engine.digest_of after;
    maxcolor = 0;
    provenance = "repaired(front=1,waves=1)";
    elapsed_s = 0.0;
  }

(* Every rejection leaves the base as it was — a later valid patch
   still applies — and an accepted patch rebuilds exactly the target,
   including a grown one. *)
let test_apply_patch () =
  let before = [| 0; 3; 7; 12; 2 |] and after = [| 0; 4; 7; 12; 1 |] in
  let base () = Proto.base_of_solution (delta_reply ~fp:10L before) in
  let good = patch_of ~base_fp:10L ~fp:11L ~before after in
  let rejects name b p =
    match Proto.apply_patch b p with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  let b = base () in
  rejects "base-key mismatch" b { good with Proto.base_fp = 9L };
  rejects "cell out of range" b
    { good with Proto.cells = [| 1; 5 |]; values = [| 4; 1 |] };
  rejects "negative cell" b
    { good with Proto.cells = [| -1; 4 |]; values = [| 4; 1 |] };
  rejects "cells out of order" b
    { good with Proto.cells = [| 4; 1 |]; values = [| 1; 4 |] };
  rejects "repeated cell" b
    { good with Proto.cells = [| 1; 1 |]; values = [| 4; 4 |] };
  rejects "shrinking length" b { good with Proto.n = 4 };
  rejects "growth the cells do not cover" b { good with Proto.n = max_int };
  rejects "digest mismatch" b { good with Proto.digest = good.Proto.digest + 1 };
  rejects "value swapped under the digest" b
    { good with Proto.values = [| 1; 4 |] };
  rejects "cells and values disagree" b { good with Proto.values = [| 4 |] };
  (match Proto.apply_patch b good with
  | Error m -> Alcotest.failf "the base was damaged by a rejection: %s" m
  | Ok b' -> (
      let s = Proto.solution_of_patch b' good in
      Alcotest.(check (array int)) "rebuilt starts" after s.Proto.starts;
      Alcotest.(check int64) "advanced key" 11L s.Proto.fingerprint;
      (* the rebuilt reply owns its starts: the next patch edits the
         base, never an array the caller holds *)
      let grown = [| 0; 4; 7; 12; 1; 5; 6 |] in
      match Proto.apply_patch b' (patch_of ~base_fp:11L ~fp:12L ~before:after grown) with
      | Error m -> Alcotest.failf "growing patch rejected: %s" m
      | Ok b'' ->
          Alcotest.(check (array int)) "caller's starts untouched" after
            s.Proto.starts;
          Alcotest.(check (array int)) "grown starts" grown
            (Proto.solution_of_patch b''
               (patch_of ~base_fp:11L ~fp:12L ~before:after grown))
              .Proto.starts));
  (* a grown cell the patch forgets stays at -1, which the digest of
     the real target catches *)
  let grown = [| 0; 3; 7; 12; 2; 5 |] in
  rejects "grown cell left out" (base ())
    {
      (patch_of ~base_fp:10L ~fp:11L ~before grown) with
      Proto.cells = [||];
      values = [||];
    }

(* WAL records outlive the wire protocol: bytes written by a v4 daemon
   (op version 4, frozen here field by field) must still decode after
   the v5 wire bump, and today's encoder must still write them. *)
let test_op_codec_v4 () =
  Alcotest.(check int) "wire protocol" 5 Proto.version;
  Alcotest.(check int) "op codec" 4 Proto.op_version;
  let inst = small_inst in
  let starts = Ivc_incremental.Engine.resolve inst in
  let v4_solved =
    let b = Codec.W.create () in
    Codec.W.int b 4;
    Codec.W.int b 0;
    Codec.W.i64 b 0xfeedL;
    Codec.W.int b 2;
    Codec.W.int b 8;
    Codec.W.int b 8;
    Codec.W.int_array b inst.S.w;
    Codec.W.int_array b starts;
    Codec.W.int b 13;
    Codec.W.int b 11;
    Codec.W.string b "heuristic:BDP";
    Codec.W.bool b true;
    Codec.W.contents b
  in
  let v4_delta =
    let b = Codec.W.create () in
    Codec.W.int b 4;
    Codec.W.int b 1;
    Codec.W.i64 b 0xbeefL;
    Codec.W.int b 1;
    Codec.W.int b 2;
    List.iter (Codec.W.int b) [ 3; 1; 5; -1 ];
    Codec.W.contents b
  in
  (match Proto.decode_op v4_solved with
  | Ok
      (Proto.Op_solved
        { fp; inst = got; starts = s; maxcolor; lower_bound; provenance;
          proven_optimal }) ->
      Alcotest.(check int64) "fp" 0xfeedL fp;
      Alcotest.(check bool) "instance" true (same_inst inst got);
      Alcotest.(check (array int)) "starts" starts s;
      Alcotest.(check (list int)) "bounds" [ 13; 11 ] [ maxcolor; lower_bound ];
      Alcotest.(check string) "provenance" "heuristic:BDP" provenance;
      Alcotest.(check bool) "optimal" true proven_optimal
  | Ok _ -> Alcotest.fail "v4 solved op decoded as another op"
  | Error m -> Alcotest.failf "v4 solved op rejected: %s" m);
  (match Proto.decode_op v4_delta with
  | Ok (Proto.Op_delta { fp; delta = D.Batch [| (3, 1); (5, -1) |] }) ->
      Alcotest.(check int64) "fp" 0xbeefL fp
  | Ok _ -> Alcotest.fail "v4 delta op decoded wrong"
  | Error m -> Alcotest.failf "v4 delta op rejected: %s" m);
  Alcotest.(check string) "encoder still writes v4 delta ops" v4_delta
    (Proto.encode_op
       (Proto.Op_delta { fp = 0xbeefL; delta = D.Batch [| (3, 1); (5, -1) |] }));
  match Proto.decode_op ("\005" ^ String.sub v4_delta 1 (String.length v4_delta - 1)) with
  | Ok _ -> Alcotest.fail "an op at the wire version must not decode"
  | Error _ -> ()

let qtest_solve_roundtrip =
  Util.qtest ~count:60 "solve request round-trips" Util.gen_inst2
    (fun inst ->
      match
        Proto.decode_request
          (Proto.encode_request
             (Proto.Solve { inst; opts = Proto.default_solve_options }))
      with
      | Ok (Proto.Solve { inst = got; _ }) -> same_inst inst got
      | _ -> false)

(* decode fails closed: version skew is typed, every other malformation
   is [Bad_request], and none of them raise *)
let expect_reject name body expected =
  match Proto.decode_request body with
  | Ok _ -> Alcotest.failf "%s: decoded a malformed body" name
  | Error (code, _) ->
      Alcotest.(check string)
        name
        (Proto.error_code_to_string expected)
        (Proto.error_code_to_string code)

let test_decode_rejects () =
  let wrong_version =
    let b = Codec.W.create () in
    Codec.W.int b (Proto.version + 1);
    Codec.W.int b 0;
    Codec.W.contents b
  in
  expect_reject "future version" wrong_version Proto.Bad_version;
  let unknown_tag =
    let b = Codec.W.create () in
    Codec.W.int b Proto.version;
    Codec.W.int b 99;
    Codec.W.contents b
  in
  expect_reject "unknown tag" unknown_tag Proto.Bad_request;
  let solve =
    Proto.encode_request
      (Proto.Solve { inst = small_inst; opts = Proto.default_solve_options })
  in
  expect_reject "truncated body"
    (String.sub solve 0 (String.length solve / 2))
    Proto.Bad_request;
  expect_reject "trailing bytes" (solve ^ "x") Proto.Bad_request;
  expect_reject "empty body" "" Proto.Bad_request;
  let short_weights =
    (* claims a 3x3 grid but carries five weights: the instance
       validator must reject it, surfaced as a typed decode error *)
    let b = Codec.W.create () in
    Codec.W.int b Proto.version;
    Codec.W.int b 1;
    Codec.W.int b 2;
    Codec.W.int b 3;
    Codec.W.int b 3;
    Codec.W.int_array b [| 1; 2; 3; 4; 5 |];
    Codec.W.contents b
  in
  expect_reject "weight/dims mismatch" short_weights Proto.Bad_request;
  (match Proto.decode_response "" with
  | Ok _ -> Alcotest.fail "decoded an empty response body"
  | Error _ -> ())

(* ---- frame transport -------------------------------------------------- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let write_raw fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "raw write complete" (String.length s) n

let test_frame_roundtrip () =
  with_pipe @@ fun r w ->
  Proto.write_frame w "hello";
  Proto.write_frame w "";
  Proto.write_frame w (String.make 1000 'z');
  Alcotest.(check (result string reject)) "first frame" (Ok "hello")
    (Proto.read_frame r);
  Alcotest.(check (result string reject)) "empty frame" (Ok "")
    (Proto.read_frame r);
  Alcotest.(check (result string reject)) "big frame"
    (Ok (String.make 1000 'z'))
    (Proto.read_frame r);
  Unix.close w;
  (match Proto.read_frame r with
  | Error Proto.Eof -> ()
  | _ -> Alcotest.fail "clean close must read as Eof")

let test_frame_damage () =
  with_pipe (fun r w ->
      write_raw w "IV";
      Unix.close w;
      match Proto.read_frame r with
      | Error Proto.Truncated -> ()
      | _ -> Alcotest.fail "partial header must be Truncated");
  with_pipe (fun r w ->
      write_raw w "XXXX\x05\x00\x00\x00hello";
      match Proto.read_frame r with
      | Error Proto.Bad_magic -> ()
      | _ -> Alcotest.fail "wrong magic must be Bad_magic");
  with_pipe (fun r w ->
      write_raw w "IVCR\x0a\x00\x00\x00hi";
      Unix.close w;
      match Proto.read_frame r with
      | Error Proto.Truncated -> ()
      | _ -> Alcotest.fail "short body must be Truncated")

let test_frame_oversized_stays_in_sync () =
  with_pipe @@ fun r w ->
  Proto.write_frame w (String.make 100 'a');
  Proto.write_frame w "after";
  (match Proto.read_frame ~max_frame:16 r with
  | Error (Proto.Oversized 100) -> ()
  | _ -> Alcotest.fail "over-cap body must be Oversized");
  (* the oversized body was consumed, so the stream is still in sync *)
  Alcotest.(check (result string reject)) "next frame still parses"
    (Ok "after")
    (Proto.read_frame ~max_frame:16 r)

(* ---- the daemon end to end -------------------------------------------- *)

let with_server ?(workers = 1) ?(queue_capacity = 8) ?(cache_capacity = 8)
    ?max_vertices ?max_frame ?idle_timeout_s ?io_timeout_s ?brownout_low
    ?brownout_high ?repair_capacity f =
  let path = Filename.temp_file "ivc_test" ".sock" in
  let addr = Server.Unix_sock path in
  let base = Server.default_config addr in
  let dflt v d = Option.value v ~default:d in
  let cfg =
    {
      base with
      Server.workers;
      queue_capacity;
      cache_capacity;
      max_vertices = dflt max_vertices base.Server.max_vertices;
      max_frame = dflt max_frame base.Server.max_frame;
      idle_timeout_s = dflt idle_timeout_s base.Server.idle_timeout_s;
      io_timeout_s = dflt io_timeout_s base.Server.io_timeout_s;
      brownout_low = dflt brownout_low base.Server.brownout_low;
      brownout_high = dflt brownout_high base.Server.brownout_high;
      repair_capacity = dflt repair_capacity base.Server.repair_capacity;
    }
  in
  let srv = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f addr)

(* Every e2e test wants a live connection or a loud failure. *)
let connect addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %s" (Client.error_to_string e)

let solve_ok addr ~opts inst =
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.solve c ~opts inst with
  | Ok (Proto.Solution s) -> s
  | Ok _ -> Alcotest.fail "expected a solution"
  | Error e -> Alcotest.failf "solve failed: %s" (Client.error_to_string e)

let test_e2e_solve_and_cache () =
  with_server @@ fun addr ->
  let s1 = solve_ok addr ~opts:fast_opts small_inst in
  let mc = Cert.assert_ok small_inst s1.Proto.starts in
  Alcotest.(check int) "reported maxcolor certified" s1.Proto.maxcolor mc;
  Alcotest.(check bool) "first solve misses the cache" false
    s1.Proto.cache_hit;
  Alcotest.(check bool) "lower bound below maxcolor" true
    (s1.Proto.lower_bound <= s1.Proto.maxcolor);
  let s2 = solve_ok addr ~opts:fast_opts small_inst in
  Alcotest.(check bool) "repeat hits the cache" true s2.Proto.cache_hit;
  Alcotest.(check int) "cached maxcolor matches" s1.Proto.maxcolor
    s2.Proto.maxcolor;
  Alcotest.(check bool) "fingerprints agree" true
    (Int64.equal s1.Proto.fingerprint s2.Proto.fingerprint);
  ignore (Cert.assert_ok small_inst s2.Proto.starts);
  let s3 =
    solve_ok addr ~opts:{ fast_opts with Proto.use_cache = false } small_inst
  in
  Alcotest.(check bool) "no-cache bypasses the cache" false s3.Proto.cache_hit

(* ---- incremental repair over the wire --------------------------------- *)

let delta_ok c ?budget ~fp d =
  match Client.delta c ?budget ~fp d with
  | Ok (Proto.Solution s) -> s
  | Ok (Proto.Error { code; message }) ->
      Alcotest.failf "delta answered %s: %s"
        (Proto.error_code_to_string code)
        message
  | Ok _ -> Alcotest.fail "expected a solution to the delta"
  | Error e -> Alcotest.failf "delta failed: %s" (Client.error_to_string e)

let apply_mirror inst d =
  match D.apply_pure inst d with
  | Ok inst' -> inst'
  | Error m -> Alcotest.failf "mirror apply: %s" m

(* Solve once, then chain deltas off the solve's fingerprint. Every
   reply is verified against a client-side mirror: the instance after
   [apply_pure] and the chain key after [chain_fp] — the server never
   gets to claim a repair the client cannot re-certify. *)
let test_e2e_delta_repair () =
  with_server @@ fun addr ->
  ignore (solve_ok addr ~opts:fast_opts small_inst);
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let step (inst, fp) d =
    let s = delta_ok c ~fp d in
    let inst' = apply_mirror inst d in
    let fp' = D.chain_fp fp d in
    (match Client.verify_delta ~expect_fp:fp' inst' s with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "delta reply failed verification: %s"
          (Client.error_to_string e));
    Alcotest.(check bool) "delta replies are repairs, not cache hits" false
      s.Proto.cache_hit;
    Alcotest.(check int) "starts cover the drifted instance"
      (S.n_vertices inst') (Array.length s.Proto.starts);
    (inst', fp')
  in
  let inst, fp =
    List.fold_left step
      (small_inst, Snapshot.fingerprint small_inst)
      [
        D.Bump { v = 0; dw = 2 };
        D.Batch [| (5, 3); (9, 1); (5, -2) |];
        D.Extend { slabs = 1; w = Array.make 8 1 };
        D.Bump { v = 70; dw = 4 };
      ]
  in
  (* budget 0 forbids repair: the server falls back to the full sweep
     and says so in the provenance — still certified, same chain *)
  let d = D.Bump { v = 1; dw = 1 } in
  let s = delta_ok c ~budget:0 ~fp d in
  Alcotest.(check string) "budget 0 answers by full resolve" "resolved"
    s.Proto.provenance;
  (match Client.verify_delta ~expect_fp:(D.chain_fp fp d) (apply_mirror inst d) s with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "resolved reply failed verification: %s"
        (Client.error_to_string e));
  (* the spent key is gone: replaying the original delta chain head
     must now miss — the chain advanced past it *)
  match Client.delta c ~fp:(Snapshot.fingerprint small_inst) d with
  | Ok (Proto.Error { code = Proto.Unknown_fingerprint; _ }) -> ()
  | Ok _ -> Alcotest.fail "a spent chain key must answer unknown"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e)

let patched_replies () =
  Ivc_obs.Counter.value (Ivc_obs.Counter.make "server.delta_patched")

(* One connection, every delta shape: the first reply is a full
   Solution, later ones travel as patches whenever the changed cells
   encode smaller. Either way the client hands back the canonical
   coloring of its own mirror, and the server's patched counter agrees
   with a local engine's changed-cell counts. *)
let test_e2e_delta_patch_chain () =
  with_server @@ fun addr ->
  ignore (solve_ok addr ~opts:fast_opts small_inst);
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let local = Ivc_incremental.Engine.create small_inst in
  let steps =
    List.init 6 (fun i -> (None, D.Bump { v = (7 * i) mod 64; dw = 1 + (i mod 3) }))
    @ [
        (None, D.Batch [| (5, 3); (9, 1); (5, -2); (40, 2) |]);
        (Some 0, D.Bump { v = 12; dw = 1 });
        (None, D.Extend { slabs = 1; w = Array.init 8 (fun k -> 1 + (k mod 3)) });
        (None, D.Bump { v = 70; dw = 2 });
        (Some 0, D.Batch [| (0, 5); (63, 1) |]);
        (None, D.Batch [||]);
      ]
  in
  let before = patched_replies () in
  let expected = ref 0 in
  let _ =
    List.fold_left
      (fun (i, inst, fp) (budget, d) ->
        let s = delta_ok c ?budget ~fp d in
        let inst' = apply_mirror inst d in
        let fp' = D.chain_fp fp d in
        (match Ivc_incremental.Engine.apply ?budget local d with
        | Ok _ ->
            let k = Array.length (Ivc_incremental.Engine.changed local) in
            if i > 0 && 2 * k < S.n_vertices inst' then incr expected
        | Error e ->
            Alcotest.failf "local engine: %s"
              (Ivc_incremental.Engine.error_to_string e));
        Alcotest.(check (array int))
          (Printf.sprintf "reply %d is the canonical coloring" i)
          (Ivc_incremental.Engine.resolve inst')
          s.Proto.starts;
        (match Client.verify_delta ~expect_fp:fp' inst' s with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "reply %d failed verification: %s" i
              (Client.error_to_string e));
        if budget = Some 0 then
          Alcotest.(check string) "budget 0 is a fallback sweep" "resolved"
            s.Proto.provenance;
        (i + 1, inst', fp'))
      (0, small_inst, Snapshot.fingerprint small_inst)
      steps
  in
  Alcotest.(check bool) "some replies were patched" true (!expected > 0);
  Alcotest.(check int) "server.delta_patched counts the patched replies"
    !expected
    (patched_replies () - before)

let test_e2e_delta_unknown_and_bad () =
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* no solve yet: any fingerprint is unknown *)
  (match Client.delta c ~fp:0x5eedL (D.Bump { v = 0; dw = 1 }) with
  | Ok (Proto.Error { code = Proto.Unknown_fingerprint; _ }) -> ()
  | Ok _ -> Alcotest.fail "unsolved fingerprint must be unknown"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e));
  ignore (solve_ok addr ~opts:fast_opts small_inst);
  let fp = Snapshot.fingerprint small_inst in
  (* a malformed delta against live repair state is typed Bad_request
     and must not advance or poison the chain *)
  (match Client.delta c ~fp (D.Bump { v = 100_000; dw = 1 }) with
  | Ok (Proto.Error { code = Proto.Bad_request; _ }) -> ()
  | Ok _ -> Alcotest.fail "out-of-range vertex must be Bad_request"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e));
  (* a wire-supplied slab count whose product wraps mod 2^63 to a
     plausible payload length ((2^60 + 1) * 8 = 8 with slice 8) must be
     a typed rejection, not a crash that wedges the repair table *)
  (match
     Client.delta c ~fp
       (D.Extend { slabs = (1 lsl 60) + 1; w = Array.make 8 1 })
   with
  | Ok (Proto.Error { code = Proto.Bad_request; _ }) -> ()
  | Ok _ -> Alcotest.fail "overflowing extend must be Bad_request"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e));
  let d = D.Bump { v = 0; dw = 1 } in
  let s = delta_ok c ~fp d in
  match
    Client.verify_delta ~expect_fp:(D.chain_fp fp d)
      (apply_mirror small_inst d) s
  with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "chain did not survive the rejected delta: %s"
        (Client.error_to_string e)

(* A long delta chain against a capacity-1 repair table: every apply
   strands its predecessor key in the eviction FIFO, so this is the
   workload that used to grow the queue one node per delta forever.
   The chain must keep answering, and afterwards the stats must show a
   table that never outgrew its capacity. *)
let test_e2e_delta_fifo_bounded () =
  with_server ~repair_capacity:1 @@ fun addr ->
  ignore (solve_ok addr ~opts:fast_opts small_inst);
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let inst = ref small_inst and fp = ref (Snapshot.fingerprint small_inst) in
  for i = 1 to 50 do
    let d = D.Bump { v = i mod S.n_vertices small_inst; dw = 1 } in
    let s = delta_ok c ~fp:!fp d in
    let inst' = apply_mirror !inst d in
    let fp' = D.chain_fp !fp d in
    (match Client.verify_delta ~expect_fp:fp' inst' s with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "delta %d failed verification: %s" i
          (Client.error_to_string e));
    Alcotest.(check bool) "delta replies are not cache hits" false
      s.Proto.cache_hit;
    inst := inst';
    fp := fp'
  done;
  match Client.stats c with
  | Error e -> Alcotest.failf "stats failed: %s" (Client.error_to_string e)
  | Ok json ->
      let has = contains json in
      Alcotest.(check bool) "repair table stayed within capacity" true
        (has {|"repair":{"size":1,"capacity":1,|})

let test_e2e_ping_and_stats () =
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.ping c with
  | Ok v -> Alcotest.(check int) "protocol version" Proto.version v
  | Error e -> Alcotest.failf "ping failed: %s" (Client.error_to_string e));
  ignore (solve_ok addr ~opts:fast_opts small_inst);
  match Client.stats c with
  | Error e -> Alcotest.failf "stats failed: %s" (Client.error_to_string e)
  | Ok json ->
      let has = contains json in
      Alcotest.(check bool) "stats has a server block" true (has "\"server\"");
      Alcotest.(check bool) "stats carries request counters" true
        (has "server.requests")

let test_e2e_too_large () =
  with_server ~max_vertices:50 @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.solve c ~opts:fast_opts small_inst with
  | Ok (Proto.Shed { code = Proto.Too_large; _ }) -> ()
  | Ok _ -> Alcotest.fail "64 vertices over a 50-vertex cap must shed"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e)

(* A damaged frame must never take down the connection unless the
   stream is desynchronized: undecodable and oversized bodies get a
   typed error and the next request still works; bad magic is fatal. *)
let test_e2e_damage_survival () =
  with_server ~max_frame:1024 @@ fun addr ->
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* right version, junk after it: decode fails closed, typed *)
      let garbage =
        let b = Codec.W.create () in
        Codec.W.int b Proto.version;
        Codec.W.contents b ^ "junk"
      in
      Proto.write_frame fd garbage;
      (match Proto.read_frame fd with
      | Ok body -> (
          match Proto.decode_response body with
          | Ok (Proto.Error { code = Proto.Bad_request; _ }) -> ()
          | _ -> Alcotest.fail "garbage body must answer Bad_request")
      | Error e ->
          Alcotest.failf "no reply to a garbage body: %s"
            (Proto.frame_error_to_string e));
      Proto.write_frame fd (String.make 2000 'j');
      (match Proto.read_frame fd with
      | Ok body -> (
          match Proto.decode_response body with
          | Ok (Proto.Error { code = Proto.Bad_frame; _ }) -> ()
          | _ -> Alcotest.fail "oversized frame must answer Bad_frame")
      | Error e ->
          Alcotest.failf "no reply to an oversized frame: %s"
            (Proto.frame_error_to_string e));
      (* the connection survived both — a normal request still works *)
      Proto.write_frame fd (Proto.encode_request Proto.Ping);
      (match Proto.read_frame fd with
      | Ok body -> (
          match Proto.decode_response body with
          | Ok (Proto.Pong _) -> ()
          | _ -> Alcotest.fail "ping after damage must pong")
      | Error e ->
          Alcotest.failf "connection did not survive: %s"
            (Proto.frame_error_to_string e));
      (* bad magic desynchronizes: typed error, then the server hangs up *)
      write_raw fd "QQQQ\x00\x00\x00\x00";
      (match Proto.read_frame fd with
      | Ok body -> (
          match Proto.decode_response body with
          | Ok (Proto.Error { code = Proto.Bad_frame; _ }) -> ()
          | _ -> Alcotest.fail "bad magic must answer Bad_frame")
      | Error e ->
          Alcotest.failf "no reply to bad magic: %s"
            (Proto.frame_error_to_string e));
      match Proto.read_frame fd with
      | Error (Proto.Eof | Proto.Truncated) -> ()
      | _ -> Alcotest.fail "bad magic must close the connection")

(* Occupy the single worker with a deadline-burning solve, then watch
   the admission controller shed: queue capacity 0 means anything
   beyond the in-flight request answers Queue_full. *)
let spawn_slow addr seconds =
  let out = ref None in
  let th =
    Thread.create
      (fun () ->
        match solve_ok addr ~opts:(slow_opts seconds) hard_inst with
        | s -> out := Some (Ok s)
        | exception e -> out := Some (Error (Printexc.to_string e)))
      ()
  in
  fun () ->
    Thread.join th;
    match !out with
    | Some (Ok s) -> s
    | Some (Error m) -> Alcotest.failf "slow solve failed: %s" m
    | None -> Alcotest.fail "slow solve produced nothing"

let test_e2e_queue_full_shed () =
  with_server ~workers:1 ~queue_capacity:0 ~cache_capacity:0 @@ fun addr ->
  let join_slow = spawn_slow addr 1.5 in
  Thread.delay 0.4;
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.solve c ~opts:fast_opts small_inst with
  | Ok (Proto.Shed { code = Proto.Queue_full; _ }) -> ()
  | Ok _ -> Alcotest.fail "saturated server must shed Queue_full"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e));
  ignore (join_slow ())

(* The deadline token is minted at admission, so time spent queued
   behind the busy worker counts: a request whose deadline passes in
   the queue is shed typed, never solved late. *)
let test_e2e_expired_in_queue () =
  with_server ~workers:1 ~cache_capacity:0 @@ fun addr ->
  let join_slow = spawn_slow addr 1.2 in
  Thread.delay 0.3;
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match
     Client.solve c
       ~opts:{ fast_opts with Proto.deadline_s = Some 0.2 }
       small_inst
   with
  | Ok (Proto.Shed { code = Proto.Expired_in_queue; _ }) -> ()
  | Ok _ -> Alcotest.fail "a deadline spent queueing must shed Expired"
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e));
  ignore (join_slow ())

(* Two workers: a deadline-burning request on one must not delay a
   fast request on the other — per-request deadlines are isolated. *)
let test_e2e_deadline_isolation () =
  with_server ~workers:2 ~cache_capacity:0 @@ fun addr ->
  let join_slow = spawn_slow addr 1.5 in
  Thread.delay 0.2;
  let t0 = Ivc_obs.now_ns () in
  let fast = solve_ok addr ~opts:fast_opts small_inst in
  let waited = Ivc_obs.elapsed_s ~since:t0 in
  ignore (Cert.assert_ok small_inst fast.Proto.starts);
  Alcotest.(check bool)
    (Printf.sprintf "fast request not stalled behind slow one (%.2fs)" waited)
    true (waited < 1.0);
  let s = join_slow () in
  ignore (Cert.assert_ok hard_inst s.Proto.starts)

let test_e2e_shutdown_request () =
  let path = Filename.temp_file "ivc_test" ".sock" in
  let srv = Server.start (Server.default_config (Server.Unix_sock path)) in
  let c = connect (Server.Unix_sock path) in
  (match Client.shutdown c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" (Client.error_to_string e));
  Client.close c;
  (* wait must see the client-requested shutdown; stop is idempotent *)
  Server.wait srv;
  Server.stop srv;
  Server.stop srv;
  try Sys.remove path with Sys_error _ -> ()

(* ---- netfault plans --------------------------------------------------- *)

let test_netfault_plan () =
  let p = Net.parse "seed=7,delay=0.2:0.002,tear=0.1,reset=0.05,stall=0.05:0.5,dup=0.1" in
  Alcotest.(check int) "seed parses" 7 p.Net.seed;
  Alcotest.(check bool) "not the empty plan" false (Net.is_none p);
  Alcotest.(check bool) "canonical form round-trips" true
    (Net.parse (Net.to_string p) = p);
  Alcotest.(check bool) "empty plan is none" true (Net.is_none (Net.parse ""));
  (match Net.parse "tear=1.5" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability above 1 must be rejected");
  (match Net.parse "bogus=1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown field must be rejected");
  (* decisions are pure in (seed, stream, chunk) *)
  for stream = 0 to 5 do
    for chunk = 0 to 20 do
      Alcotest.(check bool) "decide is deterministic" true
        (Net.decide p ~stream ~chunk = Net.decide p ~stream ~chunk)
    done
  done;
  let heavy = Net.parse "seed=3,reset=1.0" in
  Alcotest.(check bool) "probability 1 always fires" true
    (Net.decide heavy ~stream:0 ~chunk:0 = Some Net.Reset);
  let quiet = Net.parse "seed=3" in
  Alcotest.(check bool) "zero probabilities never fire" true
    (Net.decide quiet ~stream:0 ~chunk:0 = None)

(* ---- connection deadlines (slow loris) -------------------------------- *)

(* A client that starts a frame and stalls must be cut off by the io
   window — and the cut must be typed (Conn_timeout best-effort
   notice, then close) and must not damage the server: a well-behaved
   request right after still gets served. *)
let slow_loris_check ~stalled_bytes =
  with_server ~idle_timeout_s:5.0 ~io_timeout_s:0.25 @@ fun addr ->
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      write_raw fd stalled_bytes;
      (* now stall: the server's io window expires, not ours *)
      (match Proto.read_frame ~idle_timeout_s:5.0 fd with
      | Ok body -> (
          match Proto.decode_response body with
          | Ok (Proto.Error { code = Proto.Conn_timeout; _ }) -> ()
          | _ -> Alcotest.fail "stalled frame must answer Conn_timeout")
      | Error (Proto.Eof | Proto.Truncated) ->
          (* the notice is best-effort; the close is the contract *)
          ()
      | Error e ->
          Alcotest.failf "unexpected reply to a stalled frame: %s"
            (Proto.frame_error_to_string e));
      (match Proto.read_frame ~idle_timeout_s:5.0 fd with
      | Error (Proto.Eof | Proto.Truncated) -> ()
      | Ok _ -> Alcotest.fail "server must close a stalled connection"
      | Error e ->
          Alcotest.failf "stalled connection not closed: %s"
            (Proto.frame_error_to_string e));
      (* the server survived the loris: normal service continues *)
      ignore (solve_ok addr ~opts:fast_opts small_inst))

let test_slow_loris_header () = slow_loris_check ~stalled_bytes:"IV"

let test_slow_loris_body () =
  (* full header claiming 10 bytes, then only 2 of them *)
  slow_loris_check ~stalled_bytes:"IVCR\x0a\x00\x00\x00hi"

(* A half-open peer (sent its request, shut down its write side) must
   still receive its response; the server then sees EOF and closes
   without incident. *)
let test_half_open_connection () =
  with_server @@ fun addr ->
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Proto.write_frame fd (Proto.encode_request Proto.Ping);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match Proto.read_frame fd with
      | Ok body -> (
          match Proto.decode_response body with
          | Ok (Proto.Pong _) -> ()
          | _ -> Alcotest.fail "half-open ping must still pong")
      | Error e ->
          Alcotest.failf "no response on a half-open connection: %s"
            (Proto.frame_error_to_string e));
      (match Proto.read_frame fd with
      | Error Proto.Eof -> ()
      | _ -> Alcotest.fail "server must close after the peer's EOF");
      (* and the server is still healthy *)
      ignore (solve_ok addr ~opts:fast_opts small_inst))

(* ---- brownout --------------------------------------------------------- *)

let test_brownout_watermarks () =
  let cfg = Server.default_config (Server.Unix_sock "unused.sock") in
  let at occupancy = Server.brownout_of cfg ~occupancy in
  Alcotest.(check bool) "idle server is not degraded" true (at 0.0 = None);
  Alcotest.(check bool) "below low watermark" true (at 0.74 = None);
  Alcotest.(check bool) "at low watermark" true
    (at 0.75 = Some Proto.Shrunk_budget);
  Alcotest.(check bool) "between watermarks" true
    (at 0.90 = Some Proto.Shrunk_budget);
  Alcotest.(check bool) "at high watermark" true
    (at 0.95 = Some Proto.Heuristic_only);
  Alcotest.(check bool) "saturated" true (at 1.0 = Some Proto.Heuristic_only);
  let off = { cfg with Server.brownout_low = 2.0; brownout_high = 2.0 } in
  Alcotest.(check bool) "watermarks above 1 disable brownout" true
    (Server.brownout_of off ~occupancy:1.0 = None)

(* The saturation experiment behind the brownout design: the same
   staggered overload either sheds (brownout off) or completes every
   request degraded-but-certified (brownout on). Load: one worker,
   queue capacity 1, three connections each sending two sequential
   deadline-burning solves, arrivals staggered so the queue — not the
   accept loop — is the bottleneck. *)
let brownout_load addr =
  let lock = Mutex.create () in
  let sheds = ref 0 and degraded = ref 0 and solutions = ref [] in
  let worker i =
    Thread.delay (Float.of_int i *. 0.15);
    let c = connect addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for _ = 1 to 2 do
      match Client.solve c ~opts:(slow_opts 0.5) hard_inst with
      | Ok (Proto.Solution s) ->
          ignore (Cert.assert_ok hard_inst s.Proto.starts);
          Mutex.lock lock;
          if s.Proto.degraded <> None then incr degraded;
          solutions := s :: !solutions;
          Mutex.unlock lock
      | Ok (Proto.Shed _) ->
          Mutex.lock lock;
          incr sheds;
          Mutex.unlock lock
      | Ok _ -> Alcotest.fail "unexpected response under load"
      | Error e ->
          Alcotest.failf "request failed under load: %s"
            (Client.error_to_string e)
    done
  in
  let threads = List.init 3 (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  (!sheds, !degraded, List.length !solutions)

let test_e2e_brownout_conversion () =
  (* watermarks above 1: brownout disabled, overload sheds *)
  let sheds_off, _, _ =
    with_server ~workers:1 ~queue_capacity:1 ~cache_capacity:0
      ~brownout_low:2.0 ~brownout_high:2.0 brownout_load
  in
  Alcotest.(check bool)
    (Printf.sprintf "overload sheds without brownout (%d sheds)" sheds_off)
    true (sheds_off >= 1);
  (* watermarks at 0: every admitted request runs heuristics only,
     finishes in milliseconds, and the queue never fills — the sheds
     become answers *)
  let sheds_on, degraded_on, solved_on =
    with_server ~workers:1 ~queue_capacity:1 ~cache_capacity:0
      ~brownout_low:0.0 ~brownout_high:0.0 brownout_load
  in
  Alcotest.(check int) "brownout sheds nothing" 0 sheds_on;
  Alcotest.(check int) "every request answered" 6 solved_on;
  Alcotest.(check int) "every answer marked degraded" 6 degraded_on

(* ---- client retry schedule -------------------------------------------- *)

let test_retry_schedule () =
  let p =
    {
      Client.default_retry with
      Client.base_delay_s = 0.05;
      max_delay_s = 1.0;
      jitter = 0.0;
      seed = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "attempt 0" 0.05
    (Client.retry_delay_s p ~attempt:0);
  Alcotest.(check (float 1e-9)) "attempt 1 doubles" 0.1
    (Client.retry_delay_s p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles again" 0.2
    (Client.retry_delay_s p ~attempt:2);
  Alcotest.(check (float 1e-9)) "cap reached" 1.0
    (Client.retry_delay_s p ~attempt:10);
  let j = { p with Client.jitter = 0.5; seed = 42 } in
  for a = 0 to 8 do
    let d = Client.retry_delay_s j ~attempt:a in
    let full = Float.min j.Client.max_delay_s (0.05 *. (2.0 ** Float.of_int a)) in
    Alcotest.(check bool) "jitter only shrinks" true
      (d <= full +. 1e-9 && d >= (0.5 *. full) -. 1e-9);
    Alcotest.(check (float 1e-12)) "deterministic in (seed, attempt)" d
      (Client.retry_delay_s j ~attempt:a)
  done;
  Alcotest.(check bool) "different seeds draw different jitter" true
    (Client.retry_delay_s j ~attempt:3
    <> Client.retry_delay_s { j with Client.seed = 43 } ~attempt:3)

(* ---- supervisor policy ------------------------------------------------ *)

let test_supervise_policy () =
  let cfg =
    {
      Supervise.seed = 3;
      base_backoff_s = 0.1;
      max_backoff_s = 1.0;
      jitter = 0.0;
      min_uptime_s = 1.0;
      max_rapid_crashes = 3;
    }
  in
  let st = Supervise.initial in
  (* clean exits and operator signals stop the supervisor *)
  (match Supervise.on_exit cfg st ~uptime_s:0.01 ~status:(Unix.WEXITED 0) with
  | _, Supervise.Stop_clean -> ()
  | _ -> Alcotest.fail "exit 0 must stop the supervisor");
  (match
     Supervise.on_exit cfg st ~uptime_s:0.01
       ~status:(Unix.WSIGNALED Sys.sigterm)
   with
  | _, Supervise.Stop_clean -> ()
  | _ -> Alcotest.fail "SIGTERM must stop the supervisor");
  (* a rapid-crash loop escalates backoff then gives up *)
  let crash st =
    Supervise.on_exit cfg st ~uptime_s:0.01 ~status:(Unix.WEXITED 2)
  in
  let expect_restart name want st =
    match crash st with
    | st', Supervise.Restart_after d ->
        Alcotest.(check (float 1e-9)) name want d;
        st'
    | _ -> Alcotest.failf "%s: expected a restart" name
  in
  let st = expect_restart "first crash backs off base" 0.1 st in
  let st = expect_restart "second crash doubles" 0.2 st in
  let st = expect_restart "third crash doubles again" 0.4 st in
  (match crash st with
  | _, Supervise.Give_up _ -> ()
  | _ -> Alcotest.fail "a crash loop must give up");
  (* a healthy stretch resets the streak *)
  let st = expect_restart "crash one" 0.1 Supervise.initial in
  let st = expect_restart "crash two" 0.2 st in
  (match
     Supervise.on_exit cfg st ~uptime_s:60.0 ~status:(Unix.WEXITED 2)
   with
  | st', Supervise.Restart_after d ->
      Alcotest.(check (float 1e-9)) "healthy uptime resets backoff" 0.1 d;
      Alcotest.(check int) "streak reset" 1 st'.Supervise.streak
  | _ -> Alcotest.fail "a crash after healthy uptime must restart");
  (* jittered backoff is capped, positive and deterministic *)
  let jcfg = { cfg with Supervise.jitter = 0.5; seed = 11 } in
  for a = 0 to 9 do
    let d = Supervise.backoff_s jcfg ~attempt:a in
    Alcotest.(check bool) "backoff within (0, max]" true
      (d > 0.0 && d <= jcfg.Supervise.max_backoff_s);
    Alcotest.(check (float 1e-12)) "backoff deterministic" d
      (Supervise.backoff_s jcfg ~attempt:a)
  done

(* The policy's edges: "rapid" is strictly below [min_uptime_s], a
   healthy run refunds the whole rapid-crash budget (not just one
   crash), and backoff saturates exactly at the cap. *)
let test_supervise_boundaries () =
  let cfg =
    {
      Supervise.seed = 5;
      base_backoff_s = 0.1;
      max_backoff_s = 1.0;
      jitter = 0.0;
      min_uptime_s = 1.0;
      max_rapid_crashes = 3;
    }
  in
  let crash st uptime =
    Supervise.on_exit cfg st ~uptime_s:uptime ~status:(Unix.WEXITED 2)
  in
  let rapid st =
    match crash st 0.01 with
    | st', Supervise.Restart_after _ -> st'
    | _ -> Alcotest.fail "a rapid crash under the cap must restart"
  in
  (* a crash at exactly min_uptime is a healthy run *)
  let mid = { Supervise.streak = 2; restarts = 2 } in
  (match crash mid cfg.Supervise.min_uptime_s with
  | st', Supervise.Restart_after _ ->
      Alcotest.(check int) "uptime = min_uptime resets the streak" 1
        st'.Supervise.streak
  | _ -> Alcotest.fail "the boundary crash must restart");
  (match crash mid (cfg.Supervise.min_uptime_s -. 1e-9) with
  | st', Supervise.Restart_after _ ->
      Alcotest.(check int) "just under min_uptime grows the streak" 3
        st'.Supervise.streak
  | _ -> Alcotest.fail "a rapid crash under the cap must restart");
  (* ride to the cap, recover, and the full budget is available again *)
  let st = rapid (rapid (rapid Supervise.initial)) in
  Alcotest.(check int) "streak at the cap" 3 st.Supervise.streak;
  let st =
    match crash st 60.0 with
    | st', Supervise.Restart_after _ -> st'
    | _ -> Alcotest.fail "a crash after a healthy run must restart"
  in
  let st = rapid (rapid st) in
  Alcotest.(check int) "budget refunded by the healthy run" 3
    st.Supervise.streak;
  (match crash st 0.01 with
  | _, Supervise.Give_up _ -> ()
  | _ -> Alcotest.fail "exceeding the refunded budget must give up");
  (* zero-jitter backoff is monotone and pins to the cap forever *)
  let prev = ref 0.0 in
  for a = 0 to 11 do
    let d = Supervise.backoff_s cfg ~attempt:a in
    Alcotest.(check bool) "backoff monotone under zero jitter" true
      (d >= !prev);
    prev := d
  done;
  Alcotest.(check (float 1e-12)) "cap reached" cfg.Supervise.max_backoff_s
    (Supervise.backoff_s cfg ~attempt:4);
  Alcotest.(check (float 1e-12)) "cap saturates, no overflow"
    cfg.Supervise.max_backoff_s
    (Supervise.backoff_s cfg ~attempt:60)

(* ---- typed client failures -------------------------------------------- *)

let test_connect_errors_typed () =
  (match Client.connect (Server.Unix_sock "/nonexistent/dir/ivc.sock") with
  | Error (Client.Connect _) -> ()
  | Error e ->
      Alcotest.failf "missing socket path must be Connect, got %s"
        (Client.error_to_string e)
  | Ok c ->
      Client.close c;
      Alcotest.fail "connected to a nonexistent socket");
  (* a port that was bound and released refuses connections *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  (match Client.connect ~timeout_s:2.0 (Server.Tcp ("127.0.0.1", port)) with
  | Error (Client.Connect _) | Error Client.Timeout -> ()
  | Error e ->
      Alcotest.failf "refused connect must be typed Connect, got %s"
        (Client.error_to_string e)
  | Ok c ->
      Client.close c;
      Alcotest.fail "connected to a closed port")

let test_broken_pipe_typed () =
  let path = Filename.temp_file "ivc_test" ".sock" in
  let srv = Server.start (Server.default_config (Server.Unix_sock path)) in
  let c = connect (Server.Unix_sock path) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Server.stop srv;
  (* the daemon is gone: the request must come back typed — Io or
     Timeout depending on how far the kernel let it get — never as a
     Unix_error or a SIGPIPE kill *)
  (match Client.solve c ~opts:fast_opts small_inst with
  | Error (Client.Io _ | Client.Timeout) -> ()
  | Error e ->
      Alcotest.failf "dead server must surface Io/Timeout, got %s"
        (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "solved against a stopped server");
  (* the connection is marked dead: later calls fail fast, typed *)
  match Client.ping c with
  | Error (Client.Io _) -> ()
  | Error e ->
      Alcotest.failf "dead connection must fail fast with Io, got %s"
        (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "pinged a dead connection"

let test_verify_solution_corrupt () =
  with_server @@ fun addr ->
  let s = solve_ok addr ~opts:fast_opts small_inst in
  (match Client.verify_solution small_inst s with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "honest solution rejected: %s" (Client.error_to_string e));
  let wrong_fp = { s with Proto.fingerprint = Int64.lognot s.Proto.fingerprint } in
  (match Client.verify_solution small_inst wrong_fp with
  | Error (Client.Corrupt _) -> ()
  | _ -> Alcotest.fail "wrong fingerprint must be Corrupt");
  let inflated = { s with Proto.maxcolor = s.Proto.maxcolor + 1 } in
  (match Client.verify_solution small_inst inflated with
  | Error (Client.Corrupt _) -> ()
  | _ -> Alcotest.fail "inflated maxcolor claim must be Corrupt");
  let starts = Array.copy s.Proto.starts in
  starts.(0) <- starts.(0) + 1;
  match Client.verify_solution small_inst { s with Proto.starts = starts } with
  | Error (Client.Corrupt _) -> ()
  | _ -> Alcotest.fail "damaged coloring must be Corrupt"

(* ---- health and the fault proxy --------------------------------------- *)

let test_e2e_health () =
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.health c with
  | Error e -> Alcotest.failf "health failed: %s" (Client.error_to_string e)
  | Ok h ->
      Alcotest.(check bool) "ready" true h.Proto.ready;
      Alcotest.(check bool) "not draining" false h.Proto.draining;
      Alcotest.(check int) "nothing queued" 0 h.Proto.queue_depth;
      Alcotest.(check int) "nothing running" 0 h.Proto.running;
      Alcotest.(check bool) "this connection counted" true
        (h.Proto.connections >= 1);
      Alcotest.(check bool) "no brownout when idle" true
        (h.Proto.brownout = None);
      Alcotest.(check bool) "uptime non-negative" true (h.Proto.uptime_s >= 0.0)

let with_proxy ~plan f =
  with_server ~workers:1 ~idle_timeout_s:5.0 ~io_timeout_s:2.0 @@ fun addr ->
  let front = Filename.temp_file "ivc_proxy" ".sock" in
  let proxy =
    Net.start ~listen:(Server.Unix_sock front) ~upstream:addr
      ~plan:(Net.parse plan)
  in
  Fun.protect
    ~finally:(fun () ->
      Net.stop proxy;
      try Sys.remove front with Sys_error _ -> ())
    (fun () -> f (Server.Unix_sock front))

let test_e2e_proxy_benign () =
  (* delays and torn frames damage timing, never content: a single
     plain request through the proxy still verifies end to end *)
  with_proxy ~plan:"seed=5,delay=0.5:0.001,tear=0.3" @@ fun front ->
  let s = solve_ok front ~opts:fast_opts small_inst in
  match Client.verify_solution small_inst s with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "proxied solution failed verification: %s"
        (Client.error_to_string e)

let test_e2e_proxy_resets_recovered () =
  (* a reset-heavy link eats individual attempts; the retrying
     verified client must still land a certified answer *)
  with_proxy ~plan:"seed=9,reset=0.3" @@ fun front ->
  let retry =
    {
      Client.default_retry with
      Client.attempts = 10;
      base_delay_s = 0.01;
      max_delay_s = 0.05;
      seed = 9;
      connect_timeout_s = 2.0;
      request_timeout_s = Some 5.0;
    }
  in
  match Client.solve_verified ~retry ~addr:front ~opts:fast_opts small_inst with
  | Ok (Proto.Solution s) -> ignore (Cert.assert_ok small_inst s.Proto.starts)
  | Ok _ -> Alcotest.fail "expected a solution through the flaky link"
  | Error e ->
      Alcotest.failf "retries did not survive the reset plan: %s"
        (Client.error_to_string e)

(* ---- replication, promotion, failover --------------------------------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let test_addr_of_string () =
  let ok s want =
    match Client.addr_of_string s with
    | Ok got -> Alcotest.(check bool) s true (got = want)
    | Error m -> Alcotest.failf "%s rejected: %s" s m
  in
  ok "unix:/tmp/x.sock" (Server.Unix_sock "/tmp/x.sock");
  ok "/tmp/plain.sock" (Server.Unix_sock "/tmp/plain.sock");
  ok "example.com:9000" (Server.Tcp ("example.com", 9000));
  List.iter
    (fun s ->
      match Client.addr_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" s)
    [ ""; "unix:"; "host:99999"; "host:-1"; "host:nan"; ":4000" ]

(* A full failover story in-process: a WAL-journaling primary with a
   warm standby replaying its op stream; the primary is crash-stopped,
   the standby promoted over the wire, and the promoted daemon must
   serve the replayed solve from cache and keep the replayed delta
   chain alive. *)
let test_e2e_replication_promote () =
  let pdir = temp_dir "ivc-ha-p" and sdir = temp_dir "ivc-ha-s" in
  let psock = Filename.temp_file "ivc_ha_p" ".sock"
  and ssock = Filename.temp_file "ivc_ha_s" ".sock" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ psock; ssock ];
      List.iter
        (fun d -> try rm_rf d with Sys_error _ | Unix.Unix_error _ -> ())
        [ pdir; sdir ])
  @@ fun () ->
  let cfg sock =
    {
      (Server.default_config (Server.Unix_sock sock)) with
      Server.workers = 1;
      queue_capacity = 8;
      cache_capacity = 8;
      repair_capacity = 8;
      wal_fsync = false;
    }
  in
  let primary = Server.start { (cfg psock) with Server.wal_dir = Some pdir } in
  let standby =
    Server.start
      {
        (cfg ssock) with
        Server.wal_dir = Some sdir;
        standby = true;
        lease_s = 300.0;
      }
  in
  let repl =
    Replica.start ~recv_timeout_s:2.0 standby
      ~upstream:(Server.Unix_sock psock)
  in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop repl;
      Server.stop primary;
      Server.stop standby)
  @@ fun () ->
  (* journal a solve and two deltas on the primary *)
  let s0 = solve_ok (Server.Unix_sock psock) ~opts:fast_opts small_inst in
  let c = connect (Server.Unix_sock psock) in
  let inst1, fp1 =
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.fold_left
      (fun (inst, fp) d ->
        ignore (delta_ok c ~fp d);
        (apply_mirror inst d, D.chain_fp fp d))
      (small_inst, s0.Proto.fingerprint)
      [ D.Bump { v = 1; dw = 2 }; D.Batch [| (3, 1); (0, 2) |] ]
  in
  (* the warm standby refuses to serve while the primary holds the lease *)
  (let sc = connect (Server.Unix_sock ssock) in
   Fun.protect ~finally:(fun () -> Client.close sc) @@ fun () ->
   match Client.solve sc ~opts:fast_opts small_inst with
   | Ok (Proto.Error { code = Proto.Not_primary; _ }) -> ()
   | Ok _ -> Alcotest.fail "standby served inside the lease"
   | Error e ->
       Alcotest.failf "standby request failed: %s" (Client.error_to_string e));
  (* a single-address call has nowhere else to go: the refusal is a
     server decision, returned after one attempt with no backoff slept *)
  (let retry =
     {
       Client.default_retry with
       Client.attempts = 2;
       base_delay_s = 5.0;
       max_delay_s = 5.0;
       jitter = 0.0;
     }
   in
   let t0 = Unix.gettimeofday () in
   (match
      Client.solve_verified ~retry ~addr:(Server.Unix_sock ssock)
        ~opts:fast_opts small_inst
    with
   | Ok (Proto.Error { code = Proto.Not_primary; _ }) -> ()
   | Ok _ -> Alcotest.fail "solve_verified: standby served inside the lease"
   | Error e ->
       Alcotest.failf "solve_verified retried the refusal: %s"
         (Client.error_to_string e));
   Alcotest.(check bool) "one attempt, no backoff" true
     (Unix.gettimeofday () -. t0 < 4.0));
  (* the failover walk skips the refusal and answers from the primary *)
  (match
     Client.solve_failover
       ~endpoints:[ Server.Unix_sock ssock; Server.Unix_sock psock ]
       ~opts:fast_opts small_inst
   with
  | Ok (Proto.Solution s, f) ->
      ignore (Cert.assert_ok small_inst s.Proto.starts);
      Alcotest.(check int) "the primary answered" 1 f.Client.endpoint_index;
      Alcotest.(check bool) "rode past the standby" true f.Client.failed_over
  | Ok _ -> Alcotest.fail "expected a solution from the primary"
  | Error e ->
      Alcotest.failf "failover past the standby failed: %s"
        (Client.error_to_string e));
  (* the op stream drains *)
  let deadline = Unix.gettimeofday () +. 8.0 in
  let rec drain () =
    if Server.repl_applied standby >= Server.repl_head primary then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "replication never drained: applied %d of %d"
        (Server.repl_applied standby)
        (Server.repl_head primary)
    else begin
      Thread.delay 0.02;
      drain ()
    end
  in
  drain ();
  let journaled = Server.repl_head primary in
  Alcotest.(check int) "solve and deltas journaled" 3 journaled;
  (* crash the primary, promote the standby over the wire *)
  Server.kill primary;
  (let sc = connect (Server.Unix_sock ssock) in
   match
     Fun.protect ~finally:(fun () -> Client.close sc) @@ fun () ->
     Client.promote sc
   with
   | Ok applied ->
       Alcotest.(check int) "promotion applied the whole journal" journaled
         applied
   | Error e -> Alcotest.failf "promote failed: %s" (Client.error_to_string e));
  (match Server.role standby with
  | Proto.Primary -> ()
  | Proto.Standby -> Alcotest.fail "promoted standby still reports Standby");
  (* the replayed, re-certified base solve is already in its cache *)
  let s = solve_ok (Server.Unix_sock ssock) ~opts:fast_opts small_inst in
  Alcotest.(check bool) "replayed solve answers from cache" true
    s.Proto.cache_hit;
  Alcotest.(check int) "same certified maxcolor" s0.Proto.maxcolor
    s.Proto.maxcolor;
  ignore (Cert.assert_ok small_inst s.Proto.starts);
  (* and the replayed delta chain is alive: extend it one more step *)
  let d = D.Bump { v = 0; dw = 1 } in
  let sc = connect (Server.Unix_sock ssock) in
  Fun.protect ~finally:(fun () -> Client.close sc) @@ fun () ->
  match Client.delta sc ~fp:fp1 d with
  | Ok (Proto.Solution s) -> (
      match
        Client.verify_delta ~expect_fp:(D.chain_fp fp1 d)
          (apply_mirror inst1 d) s
      with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "replayed chain delta failed verification: %s"
            (Client.error_to_string e))
  | Ok (Proto.Error { code; message }) ->
      Alcotest.failf "replayed chain rejected the delta %s: %s"
        (Proto.error_code_to_string code)
        message
  | Ok _ -> Alcotest.fail "expected a solution"
  | Error e -> Alcotest.failf "delta failed: %s" (Client.error_to_string e)

(* ---- the bounded feed ------------------------------------------------- *)

(* A delta op of [pairs] zero bumps: a valid no-op whose journal payload
   is 16 bytes a pair, so a few of them push the feed past its bound. *)
let big_batch pairs = D.Batch (Array.init pairs (fun k -> (k mod 64, 0)))

let replication_cfg ?wal_dir ?(segment = 1 lsl 20) sock =
  {
    (Server.default_config (Server.Unix_sock sock)) with
    Server.workers = 1;
    queue_capacity = 8;
    cache_capacity = 8;
    repair_capacity = 8;
    wal_dir;
    wal_segment_bytes = segment;
    wal_fsync = false;
  }

(* Solve small_inst, then journal [batches] big batches on one
   connection; returns the chain key after the last one. *)
let journal_big_batches addr ~batches =
  let s0 = solve_ok addr ~opts:fast_opts small_inst in
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.fold_left
    (fun fp d ->
      ignore (delta_ok c ~fp d);
      D.chain_fp fp d)
    s0.Proto.fingerprint
    (List.init batches (fun _ -> big_batch 100_000))

let with_dirs prefixes f =
  let dirs = List.map temp_dir prefixes in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> try rm_rf d with Sys_error _ | Unix.Unix_error _ -> ()) dirs)
    (fun () -> f dirs)

let with_sock prefix f =
  let sock = Filename.temp_file prefix ".sock" in
  Fun.protect ~finally:(fun () -> try Sys.remove sock with Sys_error _ -> ()) (fun () -> f sock)

(* A standby that asks for every op from 0 after the primary's
   in-memory tail has moved on: the early ops come back from the WAL,
   in order, and the promoted standby continues the chain. *)
let check_standby_from_zero ~wal =
  with_dirs [ "ivc-tail-p"; "ivc-tail-s" ] @@ fun dirs ->
  let pdir = List.nth dirs 0 and sdir = List.nth dirs 1 in
  with_sock "ivc_tail_p" @@ fun psock ->
  with_sock "ivc_tail_s" @@ fun ssock ->
  let primary =
    Server.start (replication_cfg ?wal_dir:(if wal then Some pdir else None) psock)
  in
  Fun.protect ~finally:(fun () -> Server.stop primary) @@ fun () ->
  let read_back = Ivc_obs.Counter.make "server.repl_ops_read_back" in
  let read_before = Ivc_obs.Counter.value read_back in
  let fp = journal_big_batches (Server.Unix_sock psock) ~batches:4 in
  let head = Server.repl_head primary in
  Alcotest.(check int) "solve and batches journaled" 5 head;
  if wal then
    Alcotest.(check bool) "the tail moved past 0" true (Server.repl_tail primary > 0)
  else Alcotest.(check int) "without a WAL every op stays" 0 (Server.repl_tail primary);
  let standby =
    Server.start
      { (replication_cfg ~wal_dir:sdir ssock) with Server.standby = true; lease_s = 300.0 }
  in
  let repl =
    Replica.start ~recv_timeout_s:2.0 standby ~upstream:(Server.Unix_sock psock)
  in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop repl;
      Server.stop standby)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 20.0 in
  while Server.repl_applied standby < head && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Alcotest.(check int) "standby applied every op" head (Server.repl_applied standby);
  if wal then
    Alcotest.(check bool) "early ops were read back from the WAL" true
      (Ivc_obs.Counter.value read_back > read_before);
  ignore (Server.promote standby);
  (* the chain only exists if every op landed, in order *)
  let sc = connect (Server.Unix_sock ssock) in
  Fun.protect ~finally:(fun () -> Client.close sc) @@ fun () ->
  let d = D.Bump { v = 0; dw = 1 } in
  let s = delta_ok sc ~fp d in
  match
    Client.verify_delta ~expect_fp:(D.chain_fp fp d)
      (apply_mirror small_inst d)
      s
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replayed chain: %s" (Client.error_to_string e)

let test_e2e_standby_reads_back_wal () = check_standby_from_zero ~wal:true
let test_e2e_no_wal_keeps_every_op () = check_standby_from_zero ~wal:false

(* A hole in the WAL below the tail: the stream ships the ops before
   it, in order, and then the typed out-of-log error — never the ops
   after the hole. Each big batch fills a segment, so segment 1 holds
   exactly op 2; [damage] removes it or cuts it back to its header (a
   scrub re-installing an empty valid prefix). *)
let check_wal_hole ~damage =
  with_dirs [ "ivc-hole" ] @@ fun dirs ->
  let dir = List.hd dirs in
  with_sock "ivc_hole" @@ fun sock ->
  let srv = Server.start (replication_cfg ~wal_dir:dir ~segment:4096 sock) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  ignore (journal_big_batches (Server.Unix_sock sock) ~batches:4);
  let tail = Server.repl_tail srv in
  Alcotest.(check bool) "ops 0 and 1 live only in the WAL" true (tail >= 2);
  (* segment 0 holds the solve and the first batch *)
  damage (Filename.concat dir (Printf.sprintf "wal-%016x.seg" 1));
  let c = connect (Server.Unix_sock sock) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.send c (Proto.Replicate { from_seq = 0 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replicate: %s" (Client.error_to_string e));
  let rec recv expect =
    match Client.recv ~idle_timeout_s:5.0 c with
    | Ok (Proto.Op { seq; _ }) ->
        Alcotest.(check int) "ops arrive in order, from 0" expect seq;
        recv (seq + 1)
    | Ok (Proto.Error { code = Proto.Bad_request; message }) ->
        Alcotest.(check int) "the stream stops at the hole" 2 expect;
        Alcotest.(check bool) "typed out-of-log error" true
          (contains message "outside the log")
    | Ok _ -> Alcotest.fail "unexpected frame on the stream"
    | Error e -> Alcotest.failf "stream broke: %s" (Client.error_to_string e)
  in
  recv 0

let test_e2e_wal_hole_is_typed () =
  check_wal_hole ~damage:Sys.remove;
  check_wal_hole ~damage:(fun path -> Unix.truncate path 8)

let test_e2e_client_failover () =
  with_server @@ fun addr ->
  let dead = Filename.temp_file "ivc_dead" ".sock" in
  Sys.remove dead;
  (* first endpoint refuses connections: the answer rides to the second *)
  (match
     Client.solve_failover
       ~endpoints:[ Server.Unix_sock dead; addr ]
       ~opts:fast_opts small_inst
   with
  | Ok (Proto.Solution s, f) ->
      ignore (Cert.assert_ok small_inst s.Proto.starts);
      Alcotest.(check bool) "answer rode the failover path" true
        f.Client.failed_over;
      Alcotest.(check int) "second endpoint answered" 1 f.Client.endpoint_index;
      Alcotest.(check int) "first round sufficed" 0 f.Client.attempt
  | Ok _ -> Alcotest.fail "expected a solution"
  | Error e ->
      Alcotest.failf "failover solve failed: %s" (Client.error_to_string e));
  (* a healthy first endpoint is a clean hit, no failover provenance *)
  match Client.solve_failover ~endpoints:[ addr ] ~opts:fast_opts small_inst with
  | Ok (Proto.Solution _, f) ->
      Alcotest.(check bool) "clean first-endpoint hit" false f.Client.failed_over
  | Ok _ -> Alcotest.fail "expected a solution"
  | Error e ->
      Alcotest.failf "failover solve failed: %s" (Client.error_to_string e)

(* The delta re-key discipline: a clean (unambiguous) retry of a spent
   chain key must surface Unknown_fingerprint — never trigger the
   probe — and delta_failover recovers the same situation by
   re-solving the mirror, whose fingerprint is the new chain key. *)
let test_e2e_delta_rekey_discipline () =
  with_server @@ fun addr ->
  let s0 = solve_ok addr ~opts:fast_opts small_inst in
  let fp = s0.Proto.fingerprint in
  let d = D.Bump { v = 2; dw = 3 } in
  let mirror = apply_mirror small_inst d in
  (* happy path: delta_verified repairs and verifies against the mirror *)
  (match Client.delta_verified ~addr ~fp ~mirror d with
  | Ok (Proto.Solution s) ->
      Alcotest.(check bool) "chain advanced by one link" true
        (Int64.equal s.Proto.fingerprint (D.chain_fp fp d))
  | Ok _ -> Alcotest.fail "expected a solution"
  | Error e ->
      Alcotest.failf "delta_verified failed: %s" (Client.error_to_string e));
  let fp1 = D.chain_fp fp d in
  let d2 = D.Bump { v = 4; dw = 1 } in
  let mirror2 = apply_mirror mirror d2 in
  (* the server applies d2 but the caller never learns: simulate the
     lost answer by issuing it on a throwaway connection *)
  (let c = connect addr in
   Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
   ignore (delta_ok c ~fp:fp1 d2));
  (* the retry is NOT ambiguous (no transport failure happened inside
     this call), so the spent key must answer Unknown, not probe *)
  (match Client.delta_verified ~addr ~fp:fp1 ~mirror:mirror2 d2 with
  | Ok (Proto.Error { code = Proto.Unknown_fingerprint; _ }) -> ()
  | Ok _ -> Alcotest.fail "a clean Unknown must surface, not trigger a probe"
  | Error e ->
      Alcotest.failf "delta_verified failed: %s" (Client.error_to_string e));
  (* delta_failover's fallback re-solves the mirror on the same
     connection — always safe, and the answer carries the new key *)
  match
    Client.delta_failover ~endpoints:[ addr ] ~fp:fp1 ~mirror:mirror2 d2
  with
  | Ok (Proto.Solution s, _) ->
      ignore (Cert.assert_ok mirror2 s.Proto.starts);
      Alcotest.(check bool) "fallback answer keys the new chain" true
        (Int64.equal s.Proto.fingerprint (Snapshot.fingerprint mirror2))
  | Ok _ -> Alcotest.fail "expected a solution"
  | Error e ->
      Alcotest.failf "delta_failover failed: %s" (Client.error_to_string e)

(* A lossy link that forwards frames both ways but swallows the reply
   to the first [Delta] it carries and hangs up: the server applied
   that delta, the client never hears so. [f] gets the link's address
   and a probe telling whether the reply was swallowed yet. *)
let with_lost_delta_reply upstream f =
  let upstream_path =
    match upstream with
    | Server.Unix_sock p -> p
    | Server.Tcp _ -> invalid_arg "with_lost_delta_reply: unix sockets only"
  in
  let front = Filename.temp_file "ivc_lossy" ".sock" in
  Sys.remove front;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX front);
  Unix.listen lfd 8;
  let stop = Atomic.make false and dropped = Atomic.make false in
  let pump cfd =
    let ufd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec loop () =
      match Proto.read_frame cfd with
      | Error _ -> ()
      | Ok req -> (
          Proto.write_frame ufd req;
          match Proto.read_frame ufd with
          | Error _ -> ()
          | Ok reply -> (
              match Proto.decode_request req with
              | Ok (Proto.Delta _) when not (Atomic.exchange dropped true) -> ()
              | _ ->
                  Proto.write_frame cfd reply;
                  loop ()))
    in
    (try
       Unix.connect ufd (Unix.ADDR_UNIX upstream_path);
       loop ()
     with Unix.Unix_error _ | Sys_error _ -> ());
    Unix.close ufd;
    Unix.close cfd
  in
  let acceptor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lfd ] [] [] 0.05 with
          | [ _ ], _, _ ->
              let cfd, _ = Unix.accept lfd in
              ignore (Thread.create pump cfd)
          | _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      Unix.close lfd;
      try Sys.remove front with Sys_error _ -> ())
    (fun () -> f (Server.Unix_sock front) (fun () -> Atomic.get dropped))

(* delta_verified's probe branch: the first attempt's delta lands but
   its reply is lost, so the retry's Unknown_fingerprint is ambiguous.
   The empty-Batch probe at the advanced key must then answer, verified
   against the mirror and keyed one link past the original delta. *)
let test_e2e_delta_probe_after_lost_reply () =
  with_server @@ fun addr ->
  let s0 = solve_ok addr ~opts:fast_opts small_inst in
  let fp = s0.Proto.fingerprint in
  let d = D.Bump { v = 5; dw = 2 } in
  let mirror = apply_mirror small_inst d in
  let retry =
    { Client.default_retry with Client.base_delay_s = 0.01; max_delay_s = 0.05 }
  in
  with_lost_delta_reply addr @@ fun front dropped ->
  match Client.delta_verified ~retry ~addr:front ~fp ~mirror d with
  | Ok (Proto.Solution s) ->
      Alcotest.(check bool) "the first reply was lost" true (dropped ());
      Alcotest.(check bool) "keyed past the probe" true
        (Int64.equal s.Proto.fingerprint
           (D.chain_fp (D.chain_fp fp d) (D.Batch [||])));
      ignore (Cert.assert_ok mirror s.Proto.starts)
  | Ok _ -> Alcotest.fail "expected the probe's verified solution"
  | Error e ->
      Alcotest.failf "delta_verified failed: %s" (Client.error_to_string e)

(* Split-brain safety: an unpromoted standby refuses while its lease
   is fresh, serves (without flipping role) once the lease expires
   with no primary contact, and re-arms on renewed contact. *)
let test_e2e_standby_lease_expiry () =
  let sock = Filename.temp_file "ivc_lease" ".sock" in
  let cfg =
    {
      (Server.default_config (Server.Unix_sock sock)) with
      Server.workers = 1;
      standby = true;
      lease_s = 0.4;
    }
  in
  let srv = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove sock with Sys_error _ -> ())
  @@ fun () ->
  let addr = Server.Unix_sock sock in
  let expect_refusal why =
    let c = connect addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.solve c ~opts:fast_opts small_inst with
    | Ok (Proto.Error { code = Proto.Not_primary; _ }) -> ()
    | Ok _ -> Alcotest.fail why
    | Error e ->
        Alcotest.failf "request failed: %s" (Client.error_to_string e)
  in
  expect_refusal "standby served inside the lease";
  Thread.delay 0.6;
  let s = solve_ok addr ~opts:fast_opts small_inst in
  ignore (Cert.assert_ok small_inst s.Proto.starts);
  (match Server.role srv with
  | Proto.Standby -> ()
  | Proto.Primary -> Alcotest.fail "lease expiry must not flip the role");
  Server.note_primary_contact srv ~head:0;
  expect_refusal "fresh primary contact must re-arm the refusal"

let suite =
  [
    Alcotest.test_case "request bodies round-trip" `Quick
      test_request_roundtrips;
    Alcotest.test_case "response bodies round-trip" `Quick
      test_response_roundtrips;
    qtest_solve_roundtrip;
    Alcotest.test_case "malformed bodies rejected typed" `Quick
      test_decode_rejects;
    Alcotest.test_case "frames round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame damage detected" `Quick test_frame_damage;
    Alcotest.test_case "oversized frame keeps stream in sync" `Quick
      test_frame_oversized_stays_in_sync;
    Alcotest.test_case "e2e: solve, certify, cache" `Quick
      test_e2e_solve_and_cache;
    Alcotest.test_case "e2e: delta chain repairs and verifies" `Quick
      test_e2e_delta_repair;
    Alcotest.test_case "e2e: unknown fingerprints and bad deltas are typed"
      `Quick test_e2e_delta_unknown_and_bad;
    Alcotest.test_case "e2e: long delta chain keeps the repair FIFO bounded"
      `Quick test_e2e_delta_fifo_bounded;
    Alcotest.test_case "e2e: ping and stats" `Quick test_e2e_ping_and_stats;
    Alcotest.test_case "e2e: oversize admission shed" `Quick
      test_e2e_too_large;
    Alcotest.test_case "e2e: connection survives damaged frames" `Quick
      test_e2e_damage_survival;
    Alcotest.test_case "e2e: saturation sheds Queue_full" `Slow
      test_e2e_queue_full_shed;
    Alcotest.test_case "e2e: deadline expires in queue" `Slow
      test_e2e_expired_in_queue;
    Alcotest.test_case "e2e: deadlines are isolated" `Slow
      test_e2e_deadline_isolation;
    Alcotest.test_case "e2e: client-requested shutdown" `Quick
      test_e2e_shutdown_request;
    Alcotest.test_case "netfault plans parse and decide deterministically"
      `Quick test_netfault_plan;
    Alcotest.test_case "slow loris: stalled header is cut off" `Slow
      test_slow_loris_header;
    Alcotest.test_case "slow loris: stalled body is cut off" `Slow
      test_slow_loris_body;
    Alcotest.test_case "half-open connection still gets its response" `Quick
      test_half_open_connection;
    Alcotest.test_case "brownout watermark transitions" `Quick
      test_brownout_watermarks;
    Alcotest.test_case "e2e: brownout converts sheds into degraded answers"
      `Slow test_e2e_brownout_conversion;
    Alcotest.test_case "retry schedule is capped and deterministic" `Quick
      test_retry_schedule;
    Alcotest.test_case "supervisor policy: backoff, reset, give-up" `Quick
      test_supervise_policy;
    Alcotest.test_case "connect failures are typed" `Quick
      test_connect_errors_typed;
    Alcotest.test_case "requests to a dead server are typed" `Quick
      test_broken_pipe_typed;
    Alcotest.test_case "verify_solution rejects corrupted answers" `Quick
      test_verify_solution_corrupt;
    Alcotest.test_case "e2e: health probe" `Quick test_e2e_health;
    Alcotest.test_case "e2e: benign fault proxy preserves answers" `Slow
      test_e2e_proxy_benign;
    Alcotest.test_case "e2e: retries recover from a reset-heavy link" `Slow
      test_e2e_proxy_resets_recovered;
    Alcotest.test_case "supervisor policy: boundary cases" `Quick
      test_supervise_boundaries;
    Alcotest.test_case "endpoint syntax parses and rejects" `Quick
      test_addr_of_string;
    Alcotest.test_case "e2e: replicate, kill, promote, serve" `Quick
      test_e2e_replication_promote;
    Alcotest.test_case "e2e: client failover walks the endpoint list" `Quick
      test_e2e_client_failover;
    Alcotest.test_case "e2e: delta re-key discipline" `Quick
      test_e2e_delta_rekey_discipline;
    Alcotest.test_case "patch application rejects bad patches" `Quick
      test_apply_patch;
    Alcotest.test_case "op codec stays at v4 across the wire bump" `Quick
      test_op_codec_v4;
    Alcotest.test_case "e2e: one-connection delta chain answers with patches"
      `Quick test_e2e_delta_patch_chain;
    Alcotest.test_case "e2e: standby from 0 reads evicted ops back from the WAL"
      `Quick test_e2e_standby_reads_back_wal;
    Alcotest.test_case "e2e: without a WAL the feed serves from 0" `Quick
      test_e2e_no_wal_keeps_every_op;
    Alcotest.test_case "e2e: a WAL hole ends the stream typed" `Quick
      test_e2e_wal_hole_is_typed;
    Alcotest.test_case "e2e: standby lease expiry" `Quick
      test_e2e_standby_lease_expiry;
    Alcotest.test_case "e2e: a lost delta reply is recovered by the probe"
      `Quick test_e2e_delta_probe_after_lost_reply;
  ]
