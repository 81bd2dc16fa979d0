module P = Perfprof.Profile
module St = Perfprof.Stats

(* 3 instances, 2 algorithms: A = [10;10;10], B = [10;15;20] *)
let results = [| [| 10; 10 |]; [| 10; 15 |]; [| 10; 20 |] |]
let profiles () = P.compute ~algorithms:[| "A"; "B" |] results

let test_compute_and_wins () =
  match profiles () with
  | [ a; b ] ->
      Alcotest.(check string) "names" "A" a.P.algorithm;
      Alcotest.(check (float 1e-9)) "A wins all" 1.0 (P.wins a);
      Alcotest.(check (float 1e-9)) "B wins a third" (1.0 /. 3.0) (P.wins b)
  | _ -> Alcotest.fail "expected two profiles"

let test_proportion_at () =
  match profiles () with
  | [ _; b ] ->
      Alcotest.(check (float 1e-9)) "below 1.5" (1.0 /. 3.0) (P.proportion_at b 1.4);
      Alcotest.(check (float 1e-9)) "at 1.5" (2.0 /. 3.0) (P.proportion_at b 1.5);
      Alcotest.(check (float 1e-9)) "at 2" 1.0 (P.proportion_at b 2.0);
      Alcotest.(check (float 1e-9)) "below 1" 0.0 (P.proportion_at b 0.5)
  | _ -> Alcotest.fail "expected two profiles"

let test_auc () =
  match profiles () with
  | [ a; b ] ->
      Alcotest.(check (float 1e-9)) "perfect algorithm" 1.0 (P.auc ~tau_max:2.0 a);
      (* B: 1/3 on [1,1.5), 2/3 on [1.5,2): (0.5/3 + 0.5*2/3) / 1 = 1/2 *)
      Alcotest.(check (float 1e-9)) "step integral" 0.5 (P.auc ~tau_max:2.0 b);
      Alcotest.(check bool) "dominance" true (P.auc ~tau_max:2.0 a >= P.auc ~tau_max:2.0 b)
  | _ -> Alcotest.fail "expected two profiles"

let test_compute_rejects () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Profile.compute: non-positive value") (fun () ->
      ignore (P.compute ~algorithms:[| "A" |] [| [| 0 |] |]));
  Alcotest.check_raises "ragged" (Invalid_argument "Profile.compute: ragged results")
    (fun () -> ignore (P.compute ~algorithms:[| "A"; "B" |] [| [| 1 |] |]))

let test_empty () =
  match P.compute ~algorithms:[| "A" |] [||] with
  | [ a ] -> Alcotest.(check (float 0.)) "empty wins 0" 0.0 (P.wins a)
  | _ -> Alcotest.fail "one profile expected"

let test_stats_basic () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (St.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (St.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (St.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-6)) "geomean" 2.0 (St.geometric_mean [| 1.0; 2.0; 4.0 |]);
  let lo, hi = St.min_max [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (float 0.)) "min" 1.0 lo;
  Alcotest.(check (float 0.)) "max" 3.0 hi

let test_stats_ratios () =
  Alcotest.(check (float 1e-9)) "avg ratio" 1.25 (St.avg_ratio [| 10; 15 |] [| 10; 10 |]);
  Alcotest.(check (float 1e-9)) "skips zero refs" 1.5
    (St.avg_ratio [| 15; 99 |] [| 10; 0 |]);
  Alcotest.(check (float 1e-9)) "pct equal" 50.0 (St.pct_equal [| 1; 2 |] [| 1; 3 |]);
  Alcotest.(check (float 1e-9)) "pct improvement" 100.0
    (St.pct_improvement [| 1.0 |] [| 2.0 |])

let test_stats_percentile () =
  Alcotest.(check (float 0.)) "empty is 0" 0.0 (St.percentile [||] 0.5);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) "one sample is every percentile" 4.5
        (St.percentile [| 4.5 |] p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* nearest rank: index min (n-1) (floor (p*n)) of the sorted samples *)
  let xs = [| 7.; 3.; 10.; 1.; 5.; 9.; 2.; 8.; 4.; 6. |] in
  Alcotest.(check (float 0.)) "p50 of 10" 6.0 (St.percentile xs 0.5);
  Alcotest.(check (float 0.)) "p99 of 10" 10.0 (St.percentile xs 0.99);
  Alcotest.(check (float 0.)) "p100 clamps to the max" 10.0
    (St.percentile xs 1.0);
  Alcotest.(check (float 0.)) "input left unsorted" 7.0 xs.(0)

let test_ascii_renders () =
  let out = Format.asprintf "%a" (fun f p -> Perfprof.Ascii.render_profiles f p) (profiles ()) in
  Alcotest.(check bool) "profile canvas non-empty" true (String.length out > 100);
  let table =
    Format.asprintf "%a"
      (fun f () ->
        Perfprof.Ascii.table f ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "30"; "4" ] ])
      ()
  in
  Alcotest.(check bool) "table non-empty" true (String.length table > 10);
  let hm = Format.asprintf "%a" (fun f () -> Perfprof.Ascii.heatmap f ~x:3 ~y:3 (fun i j -> i * j)) () in
  Alcotest.(check bool) "heatmap non-empty" true (String.length hm > 8)

let suite =
  [
    Alcotest.test_case "compute and wins" `Quick test_compute_and_wins;
    Alcotest.test_case "proportion_at" `Quick test_proportion_at;
    Alcotest.test_case "auc" `Quick test_auc;
    Alcotest.test_case "compute rejects" `Quick test_compute_rejects;
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "stats basics" `Quick test_stats_basic;
    Alcotest.test_case "stats ratios" `Quick test_stats_ratios;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "ascii rendering" `Quick test_ascii_renders;
  ]
