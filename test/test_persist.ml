(* The crash-safe persistence layer: codec round-trips per payload
   kind, exhaustive truncation and single-bit corruption (every way a
   snapshot file can be damaged must map to a typed error, never an
   exception or a silent wrong resume), autosave cadence, atomic
   installs, and deterministic kill-resume equivalence for the order
   branch-and-bound, CP, iterated greedy and fuzz-campaign loops. *)

module S = Ivc_grid.Stencil
module Codec = Ivc_persist.Codec
module Snapshot = Ivc_persist.Snapshot
module Autosave = Ivc_persist.Autosave
module Wal = Ivc_persist.Wal
module Scrub = Ivc_persist.Scrub
module Order_bb = Ivc_exact.Order_bb
module Cp = Ivc_exact.Cp
module Optimize = Ivc_exact.Optimize
module It = Ivc.Iterated
module Driver = Ivc_resilient.Driver
module Fuzz = Ivc_check.Fuzz

let inst () = Util.random_inst2 ~seed:41 ~x:6 ~y:5 ~bound:9
let other_inst () = Util.random_inst2 ~seed:42 ~x:6 ~y:5 ~bound:9

let with_temp f =
  let path = Filename.temp_file "ivc-persist-test" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let err_str = function
  | Ok _ -> "Ok"
  | Error e -> Snapshot.error_to_string e

(* ---- codec primitives ----------------------------------------------- *)

let test_codec_roundtrip () =
  let rng = Spatial_data.Rng.create 1312 in
  for _ = 1 to 200 do
    let i = Spatial_data.Rng.int rng 1_000_000 - 500_000 in
    let a = Array.init (Spatial_data.Rng.int rng 20) (fun k -> k * i) in
    let s =
      String.init (Spatial_data.Rng.int rng 40) (fun _ ->
          Char.chr (Spatial_data.Rng.int rng 256))
    in
    let o = if Spatial_data.Rng.int rng 2 = 0 then Some i else None in
    let l = List.init (Spatial_data.Rng.int rng 8) (fun k -> k - i) in
    let f = Float.of_int i /. 97.0 in
    let b = Spatial_data.Rng.int rng 2 = 0 in
    let w = Codec.W.create () in
    Codec.W.int w i;
    Codec.W.i64 w (Int64.of_int (i * 3));
    Codec.W.bool w b;
    Codec.W.float w f;
    Codec.W.string w s;
    Codec.W.int_array w a;
    Codec.W.option w Codec.W.int o;
    Codec.W.list w Codec.W.int l;
    let r = Codec.R.of_string (Codec.W.contents w) in
    Alcotest.(check int) "int" i (Codec.R.int r);
    Alcotest.(check int64) "i64" (Int64.of_int (i * 3)) (Codec.R.i64 r);
    Alcotest.(check bool) "bool" b (Codec.R.bool r);
    Alcotest.(check (float 0.0)) "float" f (Codec.R.float r);
    Alcotest.(check string) "string" s (Codec.R.string r);
    Alcotest.(check (array int)) "int_array" a (Codec.R.int_array r);
    Alcotest.(check (option int)) "option" o (Codec.R.option r Codec.R.int);
    Alcotest.(check (list int)) "list" l (Codec.R.list r Codec.R.int);
    Codec.R.expect_end r
  done

let test_codec_rejects_trailing_bytes () =
  let w = Codec.W.create () in
  Codec.W.int w 7;
  let r = Codec.R.of_string (Codec.W.contents w ^ "x") in
  ignore (Codec.R.int r);
  match Codec.R.expect_end r with
  | () -> Alcotest.fail "trailing garbage accepted"
  | exception Codec.Corrupt _ -> ()

(* The sized int-array pass must produce exactly the bytes of the
   element-at-a-time encoding (length word, then one 8-byte little-endian
   word per element), at offsets other than 0 and across buffer growth,
   and a length word that promises more elements than the bytes left
   must still be rejected before anything is allocated. *)
let test_codec_int_array_bytes () =
  let reference prefix a =
    let b = Buffer.create 64 in
    Buffer.add_string b prefix;
    Buffer.add_int64_le b (Int64.of_int (Array.length a));
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) a;
    Buffer.contents b
  in
  let rng = Spatial_data.Rng.create 77 in
  List.iter
    (fun n ->
      let a =
        Array.init n (fun k ->
            match k mod 4 with
            | 0 -> max_int - k
            | 1 -> min_int + k
            | 2 -> -k
            | _ -> Spatial_data.Rng.int rng 1_000_000)
      in
      let w = Codec.W.create () in
      Codec.W.string w "hdr";
      Codec.W.int_array w a;
      let got = Codec.W.contents w in
      let w0 = Codec.W.create () in
      Codec.W.string w0 "hdr";
      let prefix = Codec.W.contents w0 in
      Alcotest.(check string)
        (Printf.sprintf "%d ints encode like the per-element writer" n)
        (reference prefix a) got;
      let r = Codec.R.of_string got in
      ignore (Codec.R.string r);
      Alcotest.(check (array int)) "decodes back" a (Codec.R.int_array r);
      Codec.R.expect_end r)
    [ 0; 1; 7; 31; 32; 33; 1000; 65_536 ];
  let lying n =
    let w = Codec.W.create () in
    Codec.W.int w n;
    Codec.W.int w 1;
    Codec.W.int w 2;
    match Codec.R.int_array (Codec.R.of_string (Codec.W.contents w)) with
    | _ -> Alcotest.failf "a length of %d over 2 elements was accepted" n
    | exception Codec.Corrupt _ -> ()
  in
  List.iter lying [ 3; 1 lsl 40; -1; max_int ];
  (* an element outside the native int range is corruption, not a wrap *)
  let b = Buffer.create 16 in
  Buffer.add_int64_le b 1L;
  Buffer.add_int64_le b Int64.max_int;
  match Codec.R.int_array (Codec.R.of_string (Buffer.contents b)) with
  | _ -> Alcotest.fail "an out-of-range element was accepted"
  | exception Codec.Corrupt _ -> ()

(* ---- snapshot framing ------------------------------------------------ *)

let sample_snapshot () =
  { Snapshot.kind = "order-bb"; payload = "some \x00binary\xff payload" }

let test_snapshot_roundtrip () =
  let rng = Spatial_data.Rng.create 99 in
  for _ = 1 to 100 do
    let bin n =
      String.init (Spatial_data.Rng.int rng n) (fun _ ->
          Char.chr (Spatial_data.Rng.int rng 256))
    in
    let t = { Snapshot.kind = bin 12; payload = bin 200 } in
    match Snapshot.of_string (Snapshot.to_string t) with
    | Ok t' ->
        Alcotest.(check string) "kind" t.Snapshot.kind t'.Snapshot.kind;
        Alcotest.(check string) "payload" t.Snapshot.payload t'.Snapshot.payload
    | Error e -> Alcotest.failf "round-trip failed: %s" (Snapshot.error_to_string e)
  done

(* Cutting the file at every byte boundary must produce a typed error —
   by construction of the test, never an exception. *)
let test_truncation_every_byte () =
  let s = Snapshot.to_string (sample_snapshot ()) in
  for len = 0 to String.length s - 1 do
    match Snapshot.of_string (String.sub s 0 len) with
    | Error
        ( Snapshot.Truncated | Snapshot.Bad_magic
        | Snapshot.Bad_checksum _ | Snapshot.Version_mismatch _ ) ->
        ()
    | other ->
        Alcotest.failf "truncation at byte %d not rejected: %s" len
          (err_str other)
  done

(* Flipping any single bit anywhere in the file must be detected: the
   magic/version/crc fields by their own checks, everything after them
   by the CRC. *)
let test_single_bit_corruption () =
  let s = Snapshot.to_string (sample_snapshot ()) in
  for byte = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr (Char.code s.[byte] lxor (1 lsl bit)));
      match Snapshot.of_string (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "bit %d of byte %d flipped undetected" bit byte
    done
  done

let test_version_mismatch_is_typed () =
  let s = Snapshot.to_string (sample_snapshot ()) in
  let b = Bytes.of_string s in
  (* version field: little-endian word at offset 8 *)
  Bytes.set b 8 (Char.chr (Snapshot.version + 1));
  match Snapshot.of_string (Bytes.to_string b) with
  | Error (Snapshot.Version_mismatch { expected; got }) ->
      Alcotest.(check int) "expected" Snapshot.version expected;
      Alcotest.(check int) "got" (Snapshot.version + 1) got
  | other -> Alcotest.failf "future version accepted: %s" (err_str other)

(* ---- per-kind payload round-trips ------------------------------------ *)

let snap_of kind payload = { Snapshot.kind; payload }

let test_order_bb_payload_roundtrip () =
  let inst = inst () in
  let n = S.n_vertices inst in
  let starts = Ivc.Heuristics.gll inst in
  let c =
    {
      (Order_bb.checkpoint_of_incumbent inst ~lb:3
         ~best:(Util.maxcolor inst starts)
         ~best_starts:starts)
      with
      Order_bb.nodes = 12345;
      path = [| 0; n - 1; 2 |];
    }
  in
  let snap = snap_of Order_bb.kind (Order_bb.encode_checkpoint c) in
  match
    Result.bind
      (Snapshot.of_string (Snapshot.to_string snap))
      (Order_bb.decode_checkpoint ~inst)
  with
  | Ok c' ->
      Alcotest.(check int) "lb" c.Order_bb.lb c'.Order_bb.lb;
      Alcotest.(check int) "best" c.Order_bb.best c'.Order_bb.best;
      Alcotest.(check int) "nodes" c.Order_bb.nodes c'.Order_bb.nodes;
      Alcotest.(check (array int)) "starts" c.Order_bb.best_starts
        c'.Order_bb.best_starts;
      Alcotest.(check (array int)) "path" c.Order_bb.path c'.Order_bb.path
  | Error e -> Alcotest.failf "decode failed: %s" (Snapshot.error_to_string e)

let test_cp_payload_roundtrip () =
  let inst = inst () in
  let starts = Ivc.Heuristics.gll inst in
  List.iter
    (fun probe ->
      let c =
        {
          Cp.fp = Snapshot.fingerprint inst;
          lo = 4;
          hi = 9;
          best_starts = starts;
          probe;
        }
      in
      let snap = snap_of Cp.kind (Cp.encode_checkpoint c) in
      match
        Result.bind
          (Snapshot.of_string (Snapshot.to_string snap))
          (Cp.decode_checkpoint ~inst)
      with
      | Ok c' ->
          Alcotest.(check int) "lo" c.Cp.lo c'.Cp.lo;
          Alcotest.(check int) "hi" c.Cp.hi c'.Cp.hi;
          Alcotest.(check bool) "probe" true (c'.Cp.probe = c.Cp.probe)
      | Error e ->
          Alcotest.failf "decode failed: %s" (Snapshot.error_to_string e))
    [ None; Some { Cp.k = 6; nodes = 77; path = [| 0; 3; 1; 2 |] } ]

let test_iterated_payload_roundtrip () =
  let inst = inst () in
  let passes = [ It.Reverse; It.Cliques; It.Restart ] in
  let starts = Ivc.Heuristics.gll inst in
  let c =
    {
      It.fp = Snapshot.fingerprint inst;
      passes = Array.of_list (List.map It.pass_tag passes);
      round = 2;
      pass_idx = 1;
      round_before = Util.maxcolor inst starts + 1;
      best = starts;
      cur = starts;
    }
  in
  let snap = snap_of It.kind (It.encode_checkpoint c) in
  match
    Result.bind
      (Snapshot.of_string (Snapshot.to_string snap))
      (It.decode_checkpoint ~inst ~passes)
  with
  | Ok c' ->
      Alcotest.(check int) "round" c.It.round c'.It.round;
      Alcotest.(check int) "pass_idx" c.It.pass_idx c'.It.pass_idx;
      Alcotest.(check (array int)) "best" c.It.best c'.It.best
  | Error e -> Alcotest.failf "decode failed: %s" (Snapshot.error_to_string e)

let test_driver_seed_roundtrip () =
  let inst = inst () in
  let starts = Ivc.Heuristics.gll inst in
  List.iter
    (fun prov ->
      let s =
        {
          Driver.fp = Snapshot.fingerprint inst;
          lb = 5;
          starts;
          prov;
          proven = false;
        }
      in
      let snap = snap_of Driver.driver_kind (Driver.encode_seed s) in
      match
        Result.bind
          (Snapshot.of_string (Snapshot.to_string snap))
          (Driver.decode_resume ~inst)
      with
      | Ok (Driver.Seed s') ->
          Alcotest.(check int) "lb" s.Driver.lb s'.Driver.lb;
          Alcotest.(check (array int)) "starts" s.Driver.starts s'.Driver.starts;
          Alcotest.(check string) "provenance"
            (Driver.provenance_to_string s.Driver.prov)
            (Driver.provenance_to_string s'.Driver.prov)
      | Ok _ -> Alcotest.fail "driver snapshot decoded to a non-seed resume"
      | Error e ->
          Alcotest.failf "decode failed: %s" (Snapshot.error_to_string e))
    [
      Driver.Fallback;
      Driver.Heuristic "BDP";
      Driver.Resumed (Driver.Heuristic "BDP+IGR");
      Driver.Resumed (Driver.Resumed Driver.Exact);
    ]

let test_fuzz_payload_roundtrip () =
  let c =
    {
      Fuzz.seed = 1913;
      next_index = 250;
      instances = 250;
      oracle_runs = 1100;
      n_failures = 2;
      elapsed_base = 3.5;
      per_oracle = [ ("cert", 250, 0); ("kernel-diff", 250, 2) ];
    }
  in
  let snap = snap_of Fuzz.kind (Fuzz.encode_checkpoint c) in
  (match
     Result.bind
       (Snapshot.of_string (Snapshot.to_string snap))
       (Fuzz.decode_checkpoint ~seed:1913)
   with
  | Ok c' ->
      Alcotest.(check int) "next_index" c.Fuzz.next_index c'.Fuzz.next_index;
      Alcotest.(check int) "oracle_runs" c.Fuzz.oracle_runs c'.Fuzz.oracle_runs;
      Alcotest.(check bool) "per_oracle" true
        (c'.Fuzz.per_oracle = c.Fuzz.per_oracle)
  | Error e -> Alcotest.failf "decode failed: %s" (Snapshot.error_to_string e));
  (* the same snapshot against a different campaign seed fails closed *)
  match
    Result.bind
      (Snapshot.of_string (Snapshot.to_string snap))
      (Fuzz.decode_checkpoint ~seed:1914)
  with
  | Error Snapshot.Instance_mismatch -> ()
  | other -> Alcotest.failf "wrong-seed cursor accepted: %s" (err_str other)

(* ---- fail-closed dispatch -------------------------------------------- *)

let test_wrong_kind_and_instance () =
  let inst = inst () in
  let starts = Ivc.Heuristics.gll inst in
  let bb =
    Order_bb.checkpoint_of_incumbent inst ~lb:3
      ~best:(Util.maxcolor inst starts) ~best_starts:starts
  in
  let bb_snap = snap_of Order_bb.kind (Order_bb.encode_checkpoint bb) in
  (* wrong solver: an order-bb snapshot handed to the CP decoder *)
  (match Cp.decode_checkpoint ~inst bb_snap with
  | Error (Snapshot.Wrong_kind { expected; got }) ->
      Alcotest.(check string) "expected" Cp.kind expected;
      Alcotest.(check string) "got" Order_bb.kind got
  | other -> Alcotest.failf "wrong kind accepted: %s" (err_str other));
  (* wrong instance: same dims, different weights *)
  (match Order_bb.decode_checkpoint ~inst:(other_inst ()) bb_snap with
  | Error Snapshot.Instance_mismatch -> ()
  | other -> Alcotest.failf "wrong instance accepted: %s" (err_str other));
  (* out-of-range path cursor *)
  let bad = { bb with Order_bb.path = [| S.n_vertices inst + 3 |] } in
  (match
     Order_bb.decode_checkpoint ~inst
       (snap_of Order_bb.kind (Order_bb.encode_checkpoint bad))
   with
  | Error (Snapshot.Bad_payload _) -> ()
  | other -> Alcotest.failf "bad path accepted: %s" (err_str other));
  (* an unknown kind through the front-end dispatchers *)
  (match Optimize.plan_resume ~inst (snap_of "fuzz" "x") with
  | Error (Snapshot.Wrong_kind _) -> ()
  | other -> Alcotest.failf "fuzz kind accepted by exact: %s" (err_str other));
  match Driver.decode_resume ~inst (snap_of "nonsense" "x") with
  | Error (Snapshot.Wrong_kind _) -> ()
  | other -> Alcotest.failf "nonsense kind accepted: %s" (err_str other)

let test_plan_resume_dispatch () =
  let inst = inst () in
  let starts = Ivc.Heuristics.gll inst in
  let bb =
    Order_bb.checkpoint_of_incumbent inst ~lb:3
      ~best:(Util.maxcolor inst starts) ~best_starts:starts
  in
  (match
     Optimize.plan_resume ~inst
       (snap_of Order_bb.kind (Order_bb.encode_checkpoint bb))
   with
  | Ok (Optimize.Order_bb_plan _) -> ()
  | other -> Alcotest.failf "order-bb did not dispatch: %s" (err_str other));
  let cp =
    { Cp.fp = Snapshot.fingerprint inst; lo = 4; hi = 9;
      best_starts = starts; probe = None }
  in
  match
    Optimize.plan_resume ~inst (snap_of Cp.kind (Cp.encode_checkpoint cp))
  with
  | Ok (Optimize.Cp_plan _) -> ()
  | other -> Alcotest.failf "cp did not dispatch: %s" (err_str other)

(* ---- autosave + atomic install --------------------------------------- *)

let test_autosave_cadence () =
  with_temp @@ fun path ->
  (* cadence 0: every tick saves, and the file always holds the newest
     complete payload *)
  let a = Autosave.make ~every_s:0.0 path in
  for i = 1 to 5 do
    Autosave.tick a ~kind:"test" (fun () -> Printf.sprintf "payload-%d" i)
  done;
  Alcotest.(check int) "every tick saved" 5 (Autosave.saves a);
  (match Snapshot.load path with
  | Ok t ->
      Alcotest.(check string) "kind" "test" t.Snapshot.kind;
      Alcotest.(check string) "newest payload" "payload-5" t.Snapshot.payload
  | Error e -> Alcotest.failf "load failed: %s" (Snapshot.error_to_string e));
  (* huge cadence: no tick is due, and the payload thunk never runs *)
  let b = Autosave.make ~every_s:1e9 path in
  for _ = 1 to 5 do
    Autosave.tick b ~kind:"test" (fun () -> Alcotest.fail "thunk ran off-cadence")
  done;
  Alcotest.(check int) "off-cadence ticks are free" 0 (Autosave.saves b)

let test_save_atomic_overwrites () =
  with_temp @@ fun path ->
  Spatial_data.Io.save_atomic path "first";
  Spatial_data.Io.save_atomic path "second";
  Alcotest.(check string) "newest content" "second"
    (Spatial_data.Io.load path);
  Alcotest.(check bool) "no temp left" false (Sys.file_exists (path ^ ".tmp"))

let test_load_missing_is_unreadable () =
  match Snapshot.load "/nonexistent/ivc-persist-test.snap" with
  | Error (Snapshot.Unreadable _) -> ()
  | other -> Alcotest.failf "missing file: %s" (err_str other)

(* ---- kill-resume equivalence ----------------------------------------- *)

exception Killed

(* Kill the solver (by raising from the autosave hook, i.e. exactly at
   a checkpoint boundary, the snapshot already installed) [kills] times
   at increasing save ordinals, resuming each time, and require the
   final status to be identical to an uninterrupted run with the same
   cumulative budget. *)
let test_kill_resume_order_bb () =
  let inst = Util.random_inst2 ~seed:4242 ~x:8 ~y:8 ~bound:19 in
  let budget = 4_000 in
  let reference = Order_bb.solve ~node_budget:budget inst in
  with_temp @@ fun path ->
  let resumed = ref 0 in
  let rec attempt resume =
    let kill_at = !resumed + 2 in
    let a =
      Autosave.make ~every_s:0.0
        ~on_save:(fun s -> if s >= kill_at && !resumed < 3 then raise Killed)
        path
    in
    match Order_bb.solve ~node_budget:budget ~autosave:a ?resume inst with
    | status -> status
    | exception Killed -> (
        incr resumed;
        match
          Result.bind (Snapshot.load path) (Order_bb.decode_checkpoint ~inst)
        with
        | Ok c -> attempt (Some c)
        | Error e ->
            Alcotest.failf "reload after kill %d failed: %s" !resumed
              (Snapshot.error_to_string e))
  in
  let final = attempt None in
  Alcotest.(check bool) "was killed at least once" true (!resumed >= 1);
  Alcotest.(check bool) "same optimality" (Order_bb.is_optimal reference)
    (Order_bb.is_optimal final);
  Alcotest.(check int) "same lower bound"
    (Order_bb.lower_bound_of reference)
    (Order_bb.lower_bound_of final);
  Alcotest.(check int) "same upper bound"
    (Order_bb.upper_bound_of reference)
    (Order_bb.upper_bound_of final);
  Util.check_valid inst (Order_bb.starts_of final)

(* The same for the CP bracket: kills land inside a decision probe
   (every probe node is a checkpoint), the resume replays the probe's
   decision path, and the result must be the uninterrupted run's
   optimum and witness. *)
let test_kill_resume_cp () =
  let inst = Ivc_check.Gen.small3 ~seed:5 in
  let budget = 2_000 in
  let reference = Cp.optimize ~budget inst in
  with_temp @@ fun path ->
  let resumed = ref 0 and mid_probe = ref 0 in
  let rec attempt resume =
    let kill_at = 50 * (!resumed + 1) in
    let a =
      Autosave.make ~every_s:0.0
        ~on_save:(fun s -> if s >= kill_at && !resumed < 3 then raise Killed)
        path
    in
    match Cp.optimize ~budget ~autosave:a ?resume inst with
    | result -> result
    | exception Killed -> (
        incr resumed;
        match Result.bind (Snapshot.load path) (Cp.decode_checkpoint ~inst) with
        | Ok c ->
            if c.Cp.probe <> None then incr mid_probe;
            attempt (Some c)
        | Error e ->
            Alcotest.failf "reload after kill %d failed: %s" !resumed
              (Snapshot.error_to_string e))
  in
  let final = attempt None in
  Alcotest.(check int) "killed three times" 3 !resumed;
  Alcotest.(check int) "every kill inside a probe" 3 !mid_probe;
  match (reference, final) with
  | Some (opt, starts), Some (opt', starts') ->
      Alcotest.(check int) "same optimum" opt opt';
      Alcotest.(check (array int)) "same witness" starts starts';
      Util.check_valid inst starts'
  | _ -> Alcotest.fail "both runs should close the bracket"

(* A kill costs no budget: the resume enters the node the snapshot was
   written at again without counting it twice, so at the smallest budget
   that closes an uninterrupted run, a run killed mid-search closes as
   well, in both engines. *)
let test_kill_resume_exact_budget () =
  with_temp @@ fun path ->
  let killed_at save solve decode =
    let a =
      Autosave.make ~every_s:0.0
        ~on_save:(fun s -> if s = save then raise Killed)
        path
    in
    match solve (Some a) None with
    | _ -> Alcotest.fail "the kill did not fire"
    | exception Killed -> (
        match Result.bind (Snapshot.load path) decode with
        | Ok c -> solve None (Some c)
        | Error e -> Alcotest.failf "reload: %s" (Snapshot.error_to_string e))
  in
  (* order-BB: the smallest closing budget is the uninterrupted node count *)
  let inst = Ivc_check.Gen.small2 ~seed:171 in
  let bb_nodes = Ivc_obs.Counter.make "exact.bb_nodes" in
  let was = Ivc_obs.enabled () in
  Ivc_obs.set_enabled true;
  let n0 = Ivc_obs.Counter.value bb_nodes in
  ignore (Order_bb.solve ~node_budget:max_int inst);
  let need = Ivc_obs.Counter.value bb_nodes - n0 in
  Ivc_obs.set_enabled was;
  let bb budget autosave resume =
    Order_bb.solve ~node_budget:budget ?autosave ?resume inst
  in
  Alcotest.(check bool) "order-bb closes at its node count" true
    (Order_bb.is_optimal (bb need None None));
  Alcotest.(check bool) "order-bb: one node less does not" false
    (Order_bb.is_optimal (bb (need - 1) None None));
  Alcotest.(check bool) "order-bb killed once still closes" true
    (Order_bb.is_optimal
       (killed_at 1 (bb need) (Order_bb.decode_checkpoint ~inst)));
  (* CP: probes 44, 43 and 42 take 21, 18 and 280 nodes (see the pinned
     search in test_exact), and the kill lands in the last one *)
  let inst = Ivc_check.Gen.small3 ~seed:5 in
  let cp budget autosave resume =
    Cp.optimize ~budget ?autosave ?resume inst
  in
  Alcotest.(check bool) "cp closes at 280 nodes a probe" true
    (cp 280 None None <> None);
  Alcotest.(check bool) "cp: 279 does not" true (cp 279 None None = None);
  Alcotest.(check bool) "cp killed inside a probe still closes" true
    (killed_at 100 (cp 280) (Cp.decode_checkpoint ~inst) = cp 280 None None)

let test_kill_resume_iterated () =
  let inst = Util.random_inst2 ~seed:4243 ~x:9 ~y:9 ~bound:15 in
  let stacked, _ = Ivc.Special.color_clique ~w:(inst : S.t).w in
  let passes = [ It.Reverse; It.Cliques; It.Restart ] in
  let reference = It.run inst stacked ~passes in
  with_temp @@ fun path ->
  let killed = ref false in
  let final =
    let a =
      Autosave.make ~every_s:0.0
        ~on_save:(fun s -> if s = 2 then raise Killed)
        path
    in
    match It.run inst stacked ~passes ~autosave:a with
    | r -> r
    | exception Killed -> (
        killed := true;
        match
          Result.bind (Snapshot.load path)
            (It.decode_checkpoint ~inst ~passes)
        with
        | Ok c -> It.run inst stacked ~passes ~resume:c
        | Error e ->
            Alcotest.failf "reload failed: %s" (Snapshot.error_to_string e))
  in
  Alcotest.(check bool) "was killed" true !killed;
  Util.check_valid inst final;
  Alcotest.(check int) "same maxcolor after resume"
    (Util.maxcolor inst reference)
    (Util.maxcolor inst final)

let test_kill_resume_fuzz () =
  let oracles = [ Ivc_check.Oracles.cert ] in
  let run_args = (123, 60) in
  let seed, max_instances = run_args in
  let reference =
    Fuzz.run ~seed ~budget_s:60.0 ~max_instances ~oracles ()
  in
  with_temp @@ fun path ->
  let killed = ref false in
  let report =
    let a =
      Autosave.make ~every_s:0.0
        ~on_save:(fun s -> if s = 20 then raise Killed)
        path
    in
    match Fuzz.run ~seed ~budget_s:60.0 ~max_instances ~oracles ~autosave:a ()
    with
    | r -> r
    | exception Killed -> (
        killed := true;
        match
          Result.bind (Snapshot.load path) (Fuzz.decode_checkpoint ~seed)
        with
        | Ok c ->
            Fuzz.run ~seed ~budget_s:60.0 ~max_instances ~oracles ~resume:c ()
        | Error e ->
            Alcotest.failf "reload failed: %s" (Snapshot.error_to_string e))
  in
  Alcotest.(check bool) "was killed" true !killed;
  Alcotest.(check bool) "resumed flag" true report.Fuzz.resumed;
  Alcotest.(check int) "cumulative instances" reference.Fuzz.instances
    report.Fuzz.instances;
  Alcotest.(check int) "cumulative oracle runs" reference.Fuzz.oracle_runs
    report.Fuzz.oracle_runs;
  Alcotest.(check bool) "per-oracle counters" true
    (reference.Fuzz.per_oracle = report.Fuzz.per_oracle)

(* The crash-resume oracle itself (fault-plan-driven kills inside the
   fuzz harness) on a few instances of the deterministic stream. *)
let test_crash_resume_oracle () =
  for index = 0 to 5 do
    let inst = Ivc_check.Gen.instance ~seed:31 ~index in
    ignore (Util.oracle_holds Ivc_check.Oracles.crash_resume inst)
  done

(* ---- write-ahead log -------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "ivc-wal-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) @@ fun () ->
  f dir

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_whole path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc s

let payload i = Printf.sprintf "record-%03d-%s" i (String.make 200 'x')

let wal_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Wal.is_segment n || Wal.is_active n)
  |> List.sort compare

let collect () =
  let seen = ref [] in
  let f seq p = seen := (seq, p) :: !seen in
  (f, fun () -> List.rev !seen)

(* Fill a log past several rotations, replay it back in order, and
   reopen it for appending: sequence numbers must continue where the
   previous writer stopped, across the seal/rotate boundary. *)
let test_wal_append_rotate_reopen () =
  with_temp_dir @@ fun dir ->
  let f, _ = collect () in
  let w, r0 = Wal.open_log ~segment_bytes:4096 ~fsync:false ~dir f in
  Alcotest.(check int) "fresh log is empty" 0 r0.Wal.records;
  let n = 60 in
  for i = 0 to n - 1 do
    Alcotest.(check int) "append returns the sequence" i
      (Wal.append w (payload i))
  done;
  Alcotest.(check int) "head counts appends" n (Wal.head w);
  Wal.close w;
  Alcotest.(check bool) "appends crossed a rotation" true
    (List.length (wal_files dir) > 1);
  let f, got = collect () in
  let r = Wal.replay ~dir f in
  Alcotest.(check bool) "clean log is not truncated" false r.Wal.truncated;
  Alcotest.(check int) "replay sees every record" n r.Wal.records;
  List.iteri
    (fun i (seq, p) ->
      Alcotest.(check int) "replay in append order" i seq;
      Alcotest.(check string) "payload intact" (payload i) p)
    (got ());
  (* reopen: the writer resumes after the last valid record *)
  let f, _ = collect () in
  let w, r = Wal.open_log ~segment_bytes:4096 ~fsync:false ~dir f in
  Alcotest.(check int) "reopen replays everything" n r.Wal.records;
  Alcotest.(check int) "sequence continues" n (Wal.append w "tail");
  Wal.close w

(* Cut the log mid-frame: replay must fail closed on the valid prefix
   (never raise, never skip a hole), and open_log must truncate the
   damage so the next writer appends onto a clean prefix. *)
let test_wal_truncation_fail_closed () =
  with_temp_dir @@ fun dir ->
  let f, _ = collect () in
  let w, _ = Wal.open_log ~segment_bytes:4096 ~fsync:false ~dir f in
  let n = 10 in
  for i = 0 to n - 1 do
    ignore (Wal.append w (payload i))
  done;
  Wal.close w;
  let last = Filename.concat dir (List.hd (List.rev (wal_files dir))) in
  let s = read_whole last in
  write_whole last (String.sub s 0 (String.length s - 5));
  let f, got = collect () in
  let r = Wal.replay ~dir f in
  Alcotest.(check bool) "truncation detected" true r.Wal.truncated;
  Alcotest.(check int) "one record lost" (n - 1) r.Wal.records;
  Alcotest.(check bool) "dropped bytes accounted" true (r.Wal.dropped_bytes > 0);
  List.iteri
    (fun i (seq, p) ->
      Alcotest.(check int) "prefix in order" i seq;
      Alcotest.(check string) "prefix payloads intact" (payload i) p)
    (got ());
  (* open_log repairs to the prefix; a fresh replay is clean again *)
  let f, _ = collect () in
  let w, r = Wal.open_log ~segment_bytes:4096 ~fsync:false ~dir f in
  Alcotest.(check int) "repair keeps the prefix" (n - 1) r.Wal.records;
  Alcotest.(check int) "writer resumes at the cut" (n - 1)
    (Wal.append w "replacement");
  Wal.close w;
  let f, _ = collect () in
  let r = Wal.replay ~dir f in
  Alcotest.(check bool) "repaired log replays clean" false r.Wal.truncated;
  Alcotest.(check int) "repaired log has the prefix plus the new tail" n
    r.Wal.records

(* A single flipped bit in a sealed segment must be caught by the CRC:
   verify_file reports the damage, replay stops at the frame before
   it, and records from any earlier segment survive untouched. *)
let test_wal_bitflip_fail_closed () =
  with_temp_dir @@ fun dir ->
  let f, _ = collect () in
  let w, _ = Wal.open_log ~segment_bytes:4096 ~fsync:false ~dir f in
  let n = 60 in
  for i = 0 to n - 1 do
    ignore (Wal.append w (payload i))
  done;
  Wal.close w;
  let sealed =
    match List.filter Wal.is_segment (wal_files dir) with
    | s :: _ -> Filename.concat dir s
    | [] -> Alcotest.fail "no sealed segment to damage"
  in
  (match Wal.verify_file sealed with
  | `Ok records -> Alcotest.(check bool) "sealed has records" true (records > 0)
  | `Damaged _ -> Alcotest.fail "undamaged segment reported damaged");
  let s = read_whole sealed in
  let off = 8 + ((String.length s - 8) / 2) in
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code s.[off] lxor 0x10));
  write_whole sealed (Bytes.to_string b);
  (match Wal.verify_file sealed with
  | `Damaged (valid_records, valid_bytes) ->
      Alcotest.(check bool) "damage located at a frame boundary" true
        (valid_records >= 0 && valid_bytes >= 8)
  | `Ok _ -> Alcotest.fail "bit flip escaped the CRC");
  let f, got = collect () in
  let r = Wal.replay ~dir f in
  Alcotest.(check bool) "replay fails closed on the flip" true r.Wal.truncated;
  Alcotest.(check bool) "replay kept a strict prefix" true (r.Wal.records < n);
  List.iteri
    (fun i (seq, p) ->
      Alcotest.(check int) "no holes before the damage" i seq;
      Alcotest.(check string) "prefix payloads intact" (payload i) p)
    (got ())

(* The scrub pass over a mixed directory: damaged sealed segments are
   quarantined (and their valid prefix re-installed), live [.open]
   segments and unknown files are skipped, and a second pass finds
   nothing left to do. *)
let test_scrub_quarantines_wal_damage () =
  with_temp_dir @@ fun dir ->
  let f, _ = collect () in
  let w, _ = Wal.open_log ~segment_bytes:4096 ~fsync:false ~dir f in
  for i = 0 to 59 do
    ignore (Wal.append w (payload i))
  done;
  Wal.close w;
  write_whole (Filename.concat dir "notes.txt") "not ours";
  (* resurrect an [.open] basename: scrub must not touch a live
     writer's active segment even if it is damaged *)
  let active = Filename.concat dir "wal-00000000000000ff.open" in
  write_whole active "garbage that is not a WAL";
  let sealed =
    match List.filter Wal.is_segment (wal_files dir) with
    | s :: _ -> Filename.concat dir s
    | [] -> Alcotest.fail "no sealed segment to damage"
  in
  let s = read_whole sealed in
  let off = 8 + ((String.length s - 8) / 3) in
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code s.[off] lxor 0x40));
  write_whole sealed (Bytes.to_string b);
  let rep = Scrub.run ~dirs:[ dir ] () in
  Alcotest.(check int) "damaged segment quarantined" 1 rep.Scrub.quarantined;
  Alcotest.(check bool) "skipped the active segment and the stray file" true
    (rep.Scrub.skipped >= 2);
  let q = Filename.concat dir "quarantine" in
  Alcotest.(check bool) "evidence kept in quarantine/" true
    (Sys.file_exists q && Array.length (Sys.readdir q) = 1);
  (if rep.Scrub.repaired > 0 then
     (* the re-installed prefix must verify clean *)
     match Wal.verify_file sealed with
     | `Ok _ -> ()
     | `Damaged _ -> Alcotest.fail "re-installed prefix still damaged");
  (* drop the fake active segment (its garbage would — correctly —
     trip a fail-closed replay); what scrub left must replay clean *)
  Sys.remove active;
  let f, _ = collect () in
  let r = Wal.replay ~dir f in
  Alcotest.(check bool) "post-scrub replay is clean" false r.Wal.truncated;
  let rep2 = Scrub.run ~dirs:[ dir ] () in
  Alcotest.(check int) "second pass finds nothing" 0 rep2.Scrub.quarantined;
  Alcotest.(check int) "second pass repairs nothing" 0 rep2.Scrub.repaired

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec trailing bytes" `Quick
      test_codec_rejects_trailing_bytes;
    Alcotest.test_case "codec int arrays: sized pass, same bytes" `Quick
      test_codec_int_array_bytes;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "truncation at every byte" `Quick
      test_truncation_every_byte;
    Alcotest.test_case "single-bit corruption" `Quick
      test_single_bit_corruption;
    Alcotest.test_case "version mismatch" `Quick test_version_mismatch_is_typed;
    Alcotest.test_case "order-bb payload round-trip" `Quick
      test_order_bb_payload_roundtrip;
    Alcotest.test_case "cp payload round-trip" `Quick test_cp_payload_roundtrip;
    Alcotest.test_case "iterated payload round-trip" `Quick
      test_iterated_payload_roundtrip;
    Alcotest.test_case "driver seed round-trip" `Quick
      test_driver_seed_roundtrip;
    Alcotest.test_case "fuzz cursor round-trip" `Quick
      test_fuzz_payload_roundtrip;
    Alcotest.test_case "wrong kind/instance fail closed" `Quick
      test_wrong_kind_and_instance;
    Alcotest.test_case "plan_resume dispatch" `Quick test_plan_resume_dispatch;
    Alcotest.test_case "autosave cadence" `Quick test_autosave_cadence;
    Alcotest.test_case "save_atomic overwrites" `Quick
      test_save_atomic_overwrites;
    Alcotest.test_case "missing file is Unreadable" `Quick
      test_load_missing_is_unreadable;
    Alcotest.test_case "kill-resume: order-bb" `Quick test_kill_resume_order_bb;
    Alcotest.test_case "kill-resume: iterated" `Quick test_kill_resume_iterated;
    Alcotest.test_case "kill-resume: fuzz campaign" `Quick
      test_kill_resume_fuzz;
    Alcotest.test_case "crash-resume oracle" `Slow test_crash_resume_oracle;
    Alcotest.test_case "wal: append, rotate, reopen" `Quick
      test_wal_append_rotate_reopen;
    Alcotest.test_case "wal: truncation fails closed" `Quick
      test_wal_truncation_fail_closed;
    Alcotest.test_case "wal: bit flip fails closed" `Quick
      test_wal_bitflip_fail_closed;
    Alcotest.test_case "scrub: quarantine is idempotent" `Quick
      test_scrub_quarantines_wal_damage;
    Alcotest.test_case "kill-resume: cp" `Quick test_kill_resume_cp;
    Alcotest.test_case "kill-resume at the exact node budget" `Quick
      test_kill_resume_exact_budget;
  ]
