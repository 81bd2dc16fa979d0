(* The resilience layer: deadline tokens, the certificate gate, the
   portfolio driver, fault injection, and the hardened pool and STKDE
   recovery paths.

   The fault tests honor IVC_FAULT_PLAN when set (that is how the CI
   fault-injection job turns the screws), falling back to a fixed local
   plan so the tests are deterministic in a plain run. *)

module S = Ivc_grid.Stencil
module R = Ivc_resilient
module Cert = Ivc_resilient.Cert
module Faults = Ivc_resilient.Faults
module Driver = Ivc_resilient.Driver
module Deadline = Ivc_resilient.Deadline
module Pool = Taskpar.Pool
module Dag = Taskpar.Dag

let env_plan default = Option.value (Faults.from_env ()) ~default

(* a cancel closure that flips to true at call number [n] *)
let cancel_after n =
  let k = ref 0 in
  fun () ->
    incr k;
    !k > n

(* ---- deadline tokens -------------------------------------------------- *)

let test_deadline_token () =
  let t = Deadline.never () in
  Alcotest.(check bool) "never not expired" false (Deadline.expired t);
  Alcotest.(check (option (float 1.0))) "never has no deadline" None
    (Deadline.remaining_s t);
  Deadline.cancel t;
  Alcotest.(check bool) "cancel expires" true (Deadline.expired t);
  let z = Deadline.make ~seconds:0.0 () in
  Alcotest.(check bool) "zero deadline expired" true (Deadline.expired z);
  Alcotest.(check (option (float 1e-9))) "zero remaining" (Some 0.0)
    (Deadline.remaining_s z);
  let far = Deadline.make ~seconds:3600.0 () in
  Alcotest.(check bool) "far deadline live" false (Deadline.expired far);
  let extra = ref false in
  let combined = Deadline.combine far (fun () -> !extra) in
  Alcotest.(check bool) "combine: both live" false (combined ());
  extra := true;
  Alcotest.(check bool) "combine: extra fires" true (combined ())

(* ---- certificate gate ------------------------------------------------- *)

(* The positive direction is the fuzzer's cert oracle (every catalog
   heuristic must certify, with a consistent maxcolor); running it
   here keeps qcheck and fuzz campaigns on one oracle codebase. *)
let qtest_cert_accepts =
  Util.qtest ~count:60 "cert accepts every heuristic" Util.gen_inst2
    (Util.oracle_holds Ivc_check.Oracles.cert)

let qtest_cert_accepts_3d =
  Util.qtest ~count:30 "cert accepts heuristics on 3D" Util.gen_inst3
    (Util.oracle_holds Ivc_check.Oracles.cert)

let qtest_cert_rejects_corruption =
  Util.qtest ~count:60 "cert rejects corrupted colorings" Util.gen_inst2
    (fun inst ->
      let n = S.n_vertices inst in
      let starts = Ivc.Bipartite_decomp.bdp inst in
      let wrong_len =
        match Cert.check inst (Array.make (n + 1) 0) with
        | Error (Cert.Wrong_length { expected; got }) ->
            expected = n && got = n + 1
        | _ -> false
      in
      (* blind a positive-weight vertex *)
      let uncolored =
        match Array.to_list (Array.init n Fun.id)
              |> List.find_opt (fun v -> S.weight inst v > 0) with
        | None -> true (* all-zero instance: nothing to corrupt *)
        | Some v -> (
            let bad = Array.copy starts in
            bad.(v) <- -1;
            match Cert.check inst bad with
            | Error (Cert.Uncolored _) -> true
            | _ -> false)
      in
      (* collide two adjacent positive-weight intervals *)
      let overlap =
        let pair = ref None in
        for u = 0 to n - 1 do
          if S.weight inst u > 0 then
            S.iter_neighbors inst u (fun v ->
                if !pair = None && S.weight inst v > 0 then
                  pair := Some (u, v))
        done;
        match !pair with
        | None -> true (* no adjacent weighted pair exists *)
        | Some (u, v) -> (
            let bad = Array.copy starts in
            bad.(v) <- bad.(u);
            match Cert.check inst bad with
            | Error (Cert.Overlap _) -> true
            | _ -> false)
      in
      wrong_len && uncolored && overlap)

(* ---- portfolio driver -------------------------------------------------- *)

let outcome_certifies inst (o : Driver.outcome) =
  (match Cert.check inst o.Driver.starts with
  | Ok mc -> mc = o.Driver.maxcolor
  | Error _ -> false)
  && o.Driver.lower_bound <= o.Driver.maxcolor
  && o.Driver.proven_optimal = (o.Driver.lower_bound = o.Driver.maxcolor)

let qtest_portfolio_valid =
  Util.qtest ~count:40 "portfolio outcome always certifies" Util.gen_inst2
    (Util.oracle_holds Ivc_check.Oracles.portfolio)

let qtest_portfolio_cancelled_midway =
  (* cancellation at an arbitrary instant must still yield a certified
     coloring: the fallback stage runs before the first poll *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"portfolio valid under random cancellation"
       ~count:40
       ~print:(fun (inst, n) ->
         Printf.sprintf "%s after %d polls" (Util.print_inst inst) n)
       QCheck2.Gen.(pair Util.gen_inst2 (int_range 0 60))
       (fun (inst, n) ->
         match Driver.solve ~budget:20_000 ~cancel:(cancel_after n) inst with
         | Ok o -> outcome_certifies inst o
         | Error _ -> false))

let test_portfolio_zero_deadline () =
  let inst = Util.random_inst2 ~seed:5 ~x:24 ~y:24 ~bound:20 in
  match Driver.solve ~deadline_s:0.0 inst with
  | Ok o ->
      Alcotest.(check bool) "certifies" true (outcome_certifies inst o);
      Alcotest.(check bool) "not exact provenance" true
        (o.Driver.provenance <> Driver.Exact)
  | Error e -> Alcotest.fail (Cert.to_string e)

let test_portfolio_exact_on_easy () =
  let inst = Util.random_inst2 ~seed:9 ~x:4 ~y:4 ~bound:8 in
  match Driver.solve inst with
  | Ok o ->
      Alcotest.(check bool) "proven optimal" true o.Driver.proven_optimal;
      Alcotest.(check bool) "exact provenance" true
        (o.Driver.provenance = Driver.Exact);
      Alcotest.(check int) "lb meets mc" o.Driver.maxcolor o.Driver.lower_bound
  | Error e -> Alcotest.fail (Cert.to_string e)

(* An answer at its certified lower bound is proven, whichever stage
   produced it: with the exact stage off, a K4 block colored by the
   fallback sits at the clique bound, and the provenance still names
   the fallback. *)
let test_portfolio_proven_at_bound () =
  let inst = S.make2 ~x:2 ~y:2 [| 3; 2; 1; 4 |] in
  match Driver.solve ~exact:false ~improve:false inst with
  | Ok o ->
      Alcotest.(check int) "maxcolor at the clique bound" 10 o.Driver.maxcolor;
      Alcotest.(check int) "lower bound" 10 o.Driver.lower_bound;
      Alcotest.(check bool) "proven optimal" true o.Driver.proven_optimal;
      Alcotest.(check bool) "provenance names the fallback" true
        (o.Driver.provenance = Driver.Fallback)
  | Error e -> Alcotest.fail (Cert.to_string e)

(* ---- cancellation inside the solvers ----------------------------------- *)

let test_order_bb_cancelled () =
  let inst = Util.random_inst2 ~seed:21 ~x:10 ~y:10 ~bound:15 in
  let st = Ivc_exact.Order_bb.solve ~cancel:(fun () -> true) inst in
  let starts = Ivc_exact.Order_bb.starts_of st in
  Util.check_valid inst starts;
  Alcotest.(check bool) "bounds ordered" true
    (Ivc_exact.Order_bb.lower_bound_of st
    <= Ivc_exact.Order_bb.upper_bound_of st)

let test_optimize_cancelled () =
  let inst = Util.random_inst2 ~seed:22 ~x:10 ~y:10 ~bound:15 in
  let o = Ivc_exact.Optimize.solve ~cancel:(fun () -> true) inst in
  Util.check_valid inst o.Ivc_exact.Optimize.starts;
  Alcotest.(check bool) "bounds ordered" true
    (o.Ivc_exact.Optimize.lower_bound <= o.Ivc_exact.Optimize.upper_bound)

let test_iterated_cancelled () =
  let inst = Util.random_inst2 ~seed:23 ~x:8 ~y:8 ~bound:12 in
  let start = Ivc.Heuristics.gll inst in
  let improved =
    Ivc.Iterated.run ~cancel:(fun () -> true) inst start
      ~passes:[ Ivc.Iterated.Reverse; Ivc.Iterated.Cliques ]
  in
  Util.check_valid inst improved;
  Alcotest.(check bool) "never worse than input" true
    (Util.maxcolor inst improved <= Util.maxcolor inst start)

(* ---- fault plans -------------------------------------------------------- *)

let test_faults_parse_roundtrip () =
  let p = Faults.parse "seed=7,crash=0.25,delay=0.05:0.002,lost=0.1" in
  Alcotest.(check int) "seed" 7 p.Faults.seed;
  Alcotest.(check (float 1e-9)) "crash" 0.25 p.Faults.crash;
  Alcotest.(check (float 1e-9)) "delay" 0.05 p.Faults.delay;
  Alcotest.(check (float 1e-9)) "delay_s" 0.002 p.Faults.delay_s;
  Alcotest.(check (float 1e-9)) "lost" 0.1 p.Faults.lost;
  let q = Faults.parse (Faults.to_string p) in
  Alcotest.(check bool) "roundtrip" true (p = q);
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  (match Faults.parse "bogus=1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "junk plan must be rejected");
  match Faults.parse "crash=2.0" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability > 1 must be rejected"

let test_faults_deterministic () =
  let p = Faults.parse "seed=13,crash=0.5,lost=0.2" in
  for task = 0 to 50 do
    for attempt = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "decide stable for (%d,%d)" task attempt)
        true
        (Faults.decide p ~task ~attempt = Faults.decide p ~task ~attempt)
    done
  done;
  (* different seeds must not produce identical decision vectors *)
  let q = { p with Faults.seed = 14 } in
  let vec plan =
    List.init 200 (fun t -> Faults.decide plan ~task:t ~attempt:0)
  in
  Alcotest.(check bool) "seed changes decisions" true (vec p <> vec q)

(* ---- hardened pool ------------------------------------------------------ *)

let pool_dag () =
  let inst = Util.random_inst2 ~seed:31 ~x:5 ~y:5 ~bound:9 in
  let starts = Ivc.Heuristics.gll inst in
  (inst, Dag.of_coloring inst ~starts ~cost:(fun _ -> 1.0))

let test_pool_recovers_from_faults () =
  (* the contract under ANY plan (CI sweeps several): the pool always
     drains without deadlock, every task either ran or is reported as a
     typed permanent failure after exactly max_retries + 1 attempts,
     and nothing is silently dropped. With the default local plan the
     retry budget is ample and no failure survives. *)
  let plan = env_plan (Faults.parse "seed=11,crash=0.25,lost=0.1") in
  let max_retries = 8 in
  let _, dag = pool_dag () in
  let ran = Array.init dag.Dag.n (fun _ -> Atomic.make 0) in
  let work v = Atomic.incr ran.(v) in
  let wrapped = Faults.wrap plan ~n:dag.Dag.n work in
  let _, failures = Pool.run_result ~max_retries dag ~workers:(Util.workers ()) ~work:wrapped in
  List.iter
    (fun (f : Pool.failure) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d exhausted its retries" f.Pool.task)
        (max_retries + 1) f.Pool.attempts)
    failures;
  let failed = List.map (fun (f : Pool.failure) -> f.Pool.task) failures in
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d ran or was reported" v)
        true
        (Atomic.get c >= 1 || List.mem v failed))
    ran;
  if Faults.from_env () = None then
    Alcotest.(check int) "no permanent failures under the local plan" 0
      (List.length failures)

let test_pool_typed_failure () =
  let _, dag = pool_dag () in
  let others = ref 0 in
  let work v = if v = 0 then failwith "task zero is cursed" else incr others in
  let _, failures = Pool.run_result ~max_retries:2 dag ~workers:(Util.workers ()) ~work in
  (match failures with
  | [ { Pool.task = 0; attempts = 3; error = Failure _ } ] -> ()
  | [ f ] ->
      Alcotest.fail
        (Printf.sprintf "unexpected failure record: task %d after %d attempts"
           f.Pool.task f.Pool.attempts)
  | l -> Alcotest.fail (Printf.sprintf "%d failures, expected 1" (List.length l)));
  (* the pool drained: every other task still ran despite the failure *)
  Alcotest.(check int) "all other tasks ran" (dag.Dag.n - 1) !others

let test_pool_run_reraises () =
  let _, dag = pool_dag () in
  match Pool.run dag ~workers:(Util.workers ~max:2 ()) ~work:(fun v -> if v = 3 then failwith "boom")
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "run must re-raise the task failure"

let test_pool_failure_counters () =
  Ivc_obs.reset ();
  Ivc_obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ivc_obs.set_enabled false;
      Ivc_obs.reset ())
    (fun () ->
      let _, dag = pool_dag () in
      let work v = if v = 0 then failwith "cursed" in
      let _, _ = Pool.run_result ~max_retries:2 dag ~workers:(Util.workers ~max:2 ()) ~work in
      let v name = Ivc_obs.Counter.value (Ivc_obs.Counter.make name) in
      Alcotest.(check int) "failures counted" 3 (v "pool.task_failures");
      Alcotest.(check int) "retries counted" 2 (v "pool.task_retries");
      Alcotest.(check int) "permanent counted" 1
        (v "pool.tasks_failed_permanently"))

(* ---- stkde end-to-end under faults ---------------------------------------- *)

let test_stkde_faulty_matches_sequential () =
  let cloud = Spatial_data.Datasets.dengue ~scale:0.02 () in
  let cfg =
    Stkde.App.make ~cloud ~voxels:(8, 8, 4) ~boxes:(4, 4, 2)
      ~hs:((cloud.Spatial_data.Points.x1 -. cloud.Spatial_data.Points.x0) /. 10.0)
      ~ht:((cloud.Spatial_data.Points.t1 -. cloud.Spatial_data.Points.t0) /. 5.0)
  in
  let inst = Stkde.App.coloring_instance cfg in
  let starts = Ivc.Bipartite_decomp.bdp inst in
  (* crash-only: the scatter body is not idempotent, so lost-result
     faults (recovery re-executes) would double-count density mass *)
  let plan =
    let p = env_plan (Faults.parse "seed=29,crash=0.3") in
    { p with Faults.lost = 0.0 }
  in
  let wrap_task = Faults.wrap plan ~n:(S.n_vertices inst) in
  let seq = Stkde.App.density_sequential cfg in
  let par, _ = Stkde.App.density_parallel ~wrap_task cfg ~starts ~workers:(Util.workers ()) in
  Alcotest.(check bool) "density identical despite faults" true
    (Stkde.App.max_diff seq par < 1e-9)

let suite =
  [
    Alcotest.test_case "deadline token" `Quick test_deadline_token;
    qtest_cert_accepts;
    qtest_cert_accepts_3d;
    qtest_cert_rejects_corruption;
    qtest_portfolio_valid;
    qtest_portfolio_cancelled_midway;
    Alcotest.test_case "portfolio under zero deadline" `Quick
      test_portfolio_zero_deadline;
    Alcotest.test_case "portfolio exact on easy instance" `Quick
      test_portfolio_exact_on_easy;
    Alcotest.test_case "order-bb cancelled" `Quick test_order_bb_cancelled;
    Alcotest.test_case "optimize cancelled" `Quick test_optimize_cancelled;
    Alcotest.test_case "iterated cancelled" `Quick test_iterated_cancelled;
    Alcotest.test_case "fault plan parse roundtrip" `Quick
      test_faults_parse_roundtrip;
    Alcotest.test_case "fault decisions deterministic" `Quick
      test_faults_deterministic;
    Alcotest.test_case "pool recovers from faults" `Quick
      test_pool_recovers_from_faults;
    Alcotest.test_case "pool typed failure" `Quick test_pool_typed_failure;
    Alcotest.test_case "pool run re-raises" `Quick test_pool_run_reraises;
    Alcotest.test_case "pool failure counters" `Quick test_pool_failure_counters;
    Alcotest.test_case "stkde under faults" `Quick
      test_stkde_faulty_matches_sequential;
    Alcotest.test_case "portfolio proven at bound" `Quick
      test_portfolio_proven_at_bound;
  ]
