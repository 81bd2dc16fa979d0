(* The fuzzing and oracle subsystem itself: generator determinism and
   family coverage, shrinker determinism and minimality, repro
   round-trips, corpus replay, and the end-to-end guarantee the whole
   PR rests on — a seeded kernel bug is caught, shrunk to a tiny
   instance, and replays deterministically. *)

module S = Ivc_grid.Stencil
module Gen = Ivc_check.Gen
module Oracle = Ivc_check.Oracle
module Oracles = Ivc_check.Oracles
module Morph = Ivc_check.Morph
module Shrink = Ivc_check.Shrink
module Repro = Ivc_check.Repro
module Fuzz = Ivc_check.Fuzz

let same_inst a b =
  S.describe a = S.describe b && (a : S.t).w = (b : S.t).w

let dims_small inst =
  match (inst : S.t).dims with
  | S.D2 (x, y) -> x <= 6 && y <= 6
  | S.D3 (x, y, z) -> x <= 4 && y <= 4 && z <= 4

(* ---- generators --------------------------------------------------------- *)

let test_gen_deterministic () =
  for i = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "instance %d stable" i)
      true
      (same_inst (Gen.instance ~seed:7 ~index:i) (Gen.instance ~seed:7 ~index:i))
  done;
  let differs =
    List.exists
      (fun i ->
        not (same_inst (Gen.instance ~seed:7 ~index:i)
               (Gen.instance ~seed:8 ~index:i)))
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "seed changes the stream" true differs;
  Alcotest.(check bool) "small2 stable" true
    (same_inst (Gen.small2 ~seed:123) (Gen.small2 ~seed:123));
  Alcotest.(check bool) "small3 stable" true
    (same_inst (Gen.small3 ~seed:123) (Gen.small3 ~seed:123))

let test_gen_family_coverage () =
  let k = List.length Gen.families in
  let covered = List.init k (fun i -> Gen.family_of_index ~index:i) in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "family %s in one cycle" (Gen.family_name f))
        true (List.mem f covered))
    Gen.families;
  (* every family builds a structurally sane instance *)
  List.iter
    (fun f ->
      let inst = Gen.of_family f ~seed:3 in
      Alcotest.(check bool)
        (Printf.sprintf "%s nonempty" (Gen.family_name f))
        true
        (S.n_vertices inst >= 1))
    Gen.families

let test_gen_hash () =
  let a = Gen.of_family Gen.Ring ~seed:5 in
  Alcotest.(check int) "hash is stable" (Gen.hash a) (Gen.hash a);
  Alcotest.(check bool) "hash non-negative" true (Gen.hash a >= 0);
  let b = Gen.of_family Gen.Ring ~seed:6 in
  Alcotest.(check bool) "hash separates instances"
    (same_inst a b) (Gen.hash a = Gen.hash b)

(* ---- shrinker ----------------------------------------------------------- *)

let buggy_fails inst =
  match Oracles.kernel_diff_buggy.Oracle.run inst with
  | Oracle.Fail _ -> true
  | Oracle.Pass -> false

let test_shrink_noop_on_pass () =
  let inst = Gen.small2 ~seed:4 in
  Alcotest.(check bool) "passing instance unchanged" true
    (same_inst inst (Shrink.shrink ~fails:(fun _ -> false) inst))

let test_shrink_dim_candidates () =
  let inst = Gen.small2 ~seed:9 in
  List.iter
    (fun c ->
      Alcotest.(check bool) "candidate strictly smaller" true
        (S.n_vertices c < S.n_vertices inst))
    (Shrink.dim_candidates inst);
  Alcotest.(check int) "1x1 has no candidates" 0
    (List.length (Shrink.dim_candidates (S.make2 ~x:1 ~y:1 [| 3 |])))

let test_shrink_deterministic_and_minimal_2d () =
  let inst = Util.random_inst2 ~seed:15 ~x:9 ~y:8 ~bound:20 in
  Alcotest.(check bool) "bug fires on the big instance" true (buggy_fails inst);
  let s1 = Shrink.shrink ~fails:buggy_fails inst in
  let s2 = Shrink.shrink ~fails:buggy_fails inst in
  Alcotest.(check bool) "shrink is deterministic" true (same_inst s1 s2);
  Alcotest.(check bool) "shrunk still fails" true (buggy_fails s1);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk within 6x6 (%s)" (S.describe s1))
    true (dims_small s1)

let test_shrink_deterministic_and_minimal_3d () =
  let inst = Util.random_inst3 ~seed:16 ~x:5 ~y:6 ~z:5 ~bound:12 in
  Alcotest.(check bool) "bug fires on the 3D instance" true (buggy_fails inst);
  let s1 = Shrink.shrink ~fails:buggy_fails inst in
  Alcotest.(check bool) "shrunk still fails" true (buggy_fails s1);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk within 4x4x4 (%s)" (S.describe s1))
    true (dims_small s1);
  Alcotest.(check bool) "shrink is deterministic" true
    (same_inst s1 (Shrink.shrink ~fails:buggy_fails inst))

(* ---- repro files --------------------------------------------------------- *)

let test_repro_roundtrip () =
  let r =
    {
      Repro.oracle = "kernel-diff";
      seed = Some 42;
      note = Some "round-trip probe";
      deltas = [];
      instance = Gen.of_family Gen.Heavy_tail ~seed:2;
    }
  in
  let r' = Repro.of_string (Repro.to_string r) in
  Alcotest.(check string) "oracle survives" r.Repro.oracle r'.Repro.oracle;
  Alcotest.(check (option int)) "seed survives" r.Repro.seed r'.Repro.seed;
  Alcotest.(check (option string)) "note survives" r.Repro.note r'.Repro.note;
  Alcotest.(check bool) "instance survives" true
    (same_inst r.Repro.instance r'.Repro.instance);
  (* no optional fields *)
  let bare =
    { Repro.oracle = "cert"; seed = None; note = None; deltas = [];
      instance = S.make2 ~x:1 ~y:2 [| 1; 1 |] }
  in
  let bare' = Repro.of_string (Repro.to_string bare) in
  Alcotest.(check (option int)) "absent seed stays absent" None bare'.Repro.seed

let expect_io_error name s =
  match Repro.of_string s with
  | exception Spatial_data.Io.Io_error _ -> ()
  | _ -> Alcotest.failf "%s: malformed repro was accepted" name

let test_repro_malformed () =
  expect_io_error "bad magic" "ivc-repro 9\noracle cert\nivc2 1 1\n3\n";
  expect_io_error "missing oracle" "ivc-repro 1\nivc2 1 1\n3\n";
  expect_io_error "bad seed" "ivc-repro 1\noracle cert\nseed zzz\nivc2 1 1\n3\n";
  expect_io_error "unknown field"
    "ivc-repro 1\noracle cert\nbogus 1\nivc2 1 1\n3\n";
  expect_io_error "missing instance" "ivc-repro 1\noracle cert\n";
  expect_io_error "truncated weights" "ivc-repro 1\noracle cert\nivc2 2 2\n1 2\n"

let test_repro_delta_roundtrip () =
  let module D = Ivc_incremental.Delta in
  let deltas =
    [
      D.Bump { v = 3; dw = 2 };
      D.Batch [| (0, 1); (5, -1); (0, 4) |];
      D.Extend { slabs = 2; w = [| 1; 0; 3; 2; 2; 0 |] };
      D.Bump { v = 7; dw = -2 };
    ]
  in
  let r =
    {
      Repro.oracle = "incremental";
      seed = Some 9;
      note = Some "delta round-trip";
      deltas;
      instance = S.make2 ~x:3 ~y:3 [| 1; 2; 0; 3; 1; 1; 0; 2; 1 |];
    }
  in
  let r' = Repro.of_string (Repro.to_string r) in
  Alcotest.(check bool) "delta stream survives" true (r'.Repro.deltas = deltas);
  Alcotest.(check bool) "instance survives" true
    (same_inst r.Repro.instance r'.Repro.instance);
  (* malformed delta lines are structural errors *)
  expect_io_error "bad delta kind"
    "ivc-repro 1\noracle incremental\ndelta nudge 1 2\nivc2 1 1\n3\n";
  expect_io_error "odd batch payload"
    "ivc-repro 1\noracle incremental\ndelta batch 1 2 3\nivc2 1 1\n3\n";
  expect_io_error "bump arity"
    "ivc-repro 1\noracle incremental\ndelta bump 1\nivc2 1 1\n3\n"

(* ---- corpus replay -------------------------------------------------------- *)

(* Regression corpus: every production-oracle repro must pass; the one
   kernel-diff!bug repro (the shrunk demo-bug instance) must still be
   caught, deterministically, with the same diagnosis. *)
let test_corpus_replay () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "corpus has >= 15 cases (got %d)" (List.length files))
    true
    (List.length files >= 15);
  List.iter
    (fun f ->
      let path = Filename.concat "corpus" f in
      let name, verdict = Fuzz.replay path in
      match (String.index_opt name '!', verdict) with
      | None, Oracle.Pass -> ()
      | None, Oracle.Fail msg -> Alcotest.failf "%s: %s: %s" f name msg
      | Some _, Oracle.Fail _ -> () (* the demo bug must keep failing *)
      | Some _, Oracle.Pass ->
          Alcotest.failf "%s: the injected-bug repro no longer fails" f)
    files

let test_replay_unknown_oracle () =
  let path = Filename.temp_file "ivc-check" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro.save path
        { Repro.oracle = "no-such-oracle"; seed = None; note = None;
          deltas = []; instance = S.make2 ~x:1 ~y:1 [| 1 |] };
      match Fuzz.replay path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "unknown oracle must be rejected")

(* ---- campaigns ------------------------------------------------------------ *)

let test_fuzz_clean_campaign () =
  let r = Fuzz.run ~seed:1 ~budget_s:60.0 ~max_instances:20 () in
  Alcotest.(check int) "all 20 instances generated" 20 r.Fuzz.instances;
  Alcotest.(check bool) "oracle runs accumulated" true
    (r.Fuzz.oracle_runs >= r.Fuzz.instances);
  (match r.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "oracle %s failed on instance %d: %s" f.Fuzz.oracle
        f.Fuzz.index f.Fuzz.message)

let test_fuzz_catches_injected_bug () =
  let r =
    Fuzz.run ~seed:42 ~budget_s:60.0 ~max_instances:12
      ~oracles:[ Oracles.kernel_diff_buggy ] ()
  in
  Alcotest.(check bool) "bug found" true (r.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d shrunk small (%s)" f.Fuzz.index
           (S.describe f.Fuzz.shrunk))
        true
        (dims_small f.Fuzz.shrunk);
      (* the shrunk repro fails again, with the same diagnosis *)
      match Oracles.kernel_diff_buggy.Oracle.run f.Fuzz.shrunk with
      | Oracle.Fail msg ->
          Alcotest.(check string) "diagnosis replays" f.Fuzz.shrunk_message msg
      | Oracle.Pass -> Alcotest.fail "shrunk instance no longer fails")
    r.Fuzz.failures;
  (* the campaign itself is deterministic *)
  let r' =
    Fuzz.run ~seed:42 ~budget_s:60.0 ~max_instances:12
      ~oracles:[ Oracles.kernel_diff_buggy ] ()
  in
  Alcotest.(check int) "same failure count" (List.length r.Fuzz.failures)
    (List.length r'.Fuzz.failures);
  List.iter2
    (fun (a : Fuzz.failure) (b : Fuzz.failure) ->
      Alcotest.(check int) "same failing index" a.Fuzz.index b.Fuzz.index;
      Alcotest.(check bool) "same shrunk instance" true
        (same_inst a.Fuzz.shrunk b.Fuzz.shrunk))
    r.Fuzz.failures r'.Fuzz.failures

let test_fuzz_repro_files_replay () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivc-fuzz-%d" (Unix.getpid ()))
  in
  let r =
    Fuzz.run ~seed:42 ~budget_s:60.0 ~max_instances:3
      ~oracles:[ Oracles.kernel_diff_buggy ] ~out_dir:dir ()
  in
  Alcotest.(check bool) "wrote at least one repro" true (r.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      match f.Fuzz.repro_path with
      | None -> Alcotest.fail "failure without a repro path"
      | Some path ->
          let name, verdict = Fuzz.replay path in
          Alcotest.(check string) "repro names its oracle"
            Oracles.kernel_diff_buggy.Oracle.name name;
          (match verdict with
          | Oracle.Fail _ -> ()
          | Oracle.Pass -> Alcotest.failf "%s replays clean" path);
          Sys.remove path)
    r.Fuzz.failures;
  Sys.rmdir dir

(* ---- oracle registry ------------------------------------------------------- *)

let test_registry_lookup () =
  Alcotest.(check int) "thirteen production oracles" 13
    (List.length Oracles.all);
  List.iter
    (fun (o : Oracle.t) ->
      match Oracles.find o.Oracle.name with
      | Some o' -> Alcotest.(check string) "find by name" o.Oracle.name o'.Oracle.name
      | None -> Alcotest.failf "oracle %s not found by name" o.Oracle.name)
    Oracles.all;
  (match Oracles.find "CERT" with
  | Some o -> Alcotest.(check string) "lookup is case-insensitive" "cert" o.Oracle.name
  | None -> Alcotest.fail "case-insensitive lookup failed");
  Alcotest.(check (option string)) "unknown name" None
    (Option.map (fun (o : Oracle.t) -> o.Oracle.name) (Oracles.find "no-such"));
  Alcotest.(check bool) "buggy oracle is findable" true
    (Oracles.find "kernel-diff!bug" <> None);
  Alcotest.(check bool) "buggy oracle is not in the registry" true
    (not (List.exists (fun (o : Oracle.t) -> o.Oracle.name = "kernel-diff!bug")
            Oracles.all))

let test_morphs_applicable () =
  let inst2 = Gen.small2 ~seed:1 and inst3 = Gen.small3 ~seed:1 in
  let names l = List.map (fun (m : Morph.t) -> m.Morph.name) l in
  Alcotest.(check bool) "2D gets transpose" true
    (List.mem "transpose" (names (Morph.applicable inst2)));
  Alcotest.(check bool) "2D never gets z-reflection" false
    (List.mem "reflect-z" (names (Morph.applicable inst2)));
  Alcotest.(check bool) "3D gets axis swap" true
    (List.mem "swap-xy" (names (Morph.applicable inst3)))

(* The adversarial families through the bound and metamorphic oracles:
   known structure (chains, cliques, rings, stripes) is where a wrong
   bound or a broken symmetry argument shows first. *)
let test_families_oracles () =
  List.iter
    (fun f ->
      let inst = Gen.of_family f ~seed:11 in
      List.iter
        (fun (o : Oracle.t) ->
          if o.Oracle.applies inst then ignore (Util.oracle_holds o inst))
        [ Oracles.bound_sandwich; Oracles.bound_monotone; Oracles.metamorphic ])
    Gen.families

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_gen_deterministic;
    Alcotest.test_case "generator family coverage" `Quick
      test_gen_family_coverage;
    Alcotest.test_case "instance hash" `Quick test_gen_hash;
    Alcotest.test_case "shrink no-op on pass" `Quick test_shrink_noop_on_pass;
    Alcotest.test_case "shrink dim candidates" `Quick
      test_shrink_dim_candidates;
    Alcotest.test_case "shrink deterministic + minimal (2D)" `Quick
      test_shrink_deterministic_and_minimal_2d;
    Alcotest.test_case "shrink deterministic + minimal (3D)" `Quick
      test_shrink_deterministic_and_minimal_3d;
    Alcotest.test_case "repro round-trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "repro rejects malformed input" `Quick
      test_repro_malformed;
    Alcotest.test_case "repro delta round-trip" `Quick
      test_repro_delta_roundtrip;
    Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    Alcotest.test_case "replay rejects unknown oracle" `Quick
      test_replay_unknown_oracle;
    Alcotest.test_case "clean campaign on the production registry" `Quick
      test_fuzz_clean_campaign;
    Alcotest.test_case "injected bug caught, shrunk, deterministic" `Quick
      test_fuzz_catches_injected_bug;
    Alcotest.test_case "repro files replay" `Quick test_fuzz_repro_files_replay;
    Alcotest.test_case "oracle registry lookup" `Quick test_registry_lookup;
    Alcotest.test_case "metamorphic applicability" `Quick
      test_morphs_applicable;
    Alcotest.test_case "families through bound/metamorphic oracles" `Quick
      test_families_oracles;
    Util.qtest ~count:40 "bound-sandwich oracle (2D)" Util.gen_inst2
      (Util.oracle_holds Oracles.bound_sandwich);
    Util.qtest ~count:25 "bound-sandwich oracle (3D)" Util.gen_inst3
      (Util.oracle_holds Oracles.bound_sandwich);
    Util.qtest ~count:40 "bound-monotone oracle (2D)" Util.gen_inst2
      (Util.oracle_holds Oracles.bound_monotone);
    Util.qtest ~count:40 "metamorphic oracle (2D)" Util.gen_inst2
      (Util.oracle_holds Oracles.metamorphic);
    Util.qtest ~count:25 "metamorphic oracle (3D)" Util.gen_inst3
      (Util.oracle_holds Oracles.metamorphic);
  ]
