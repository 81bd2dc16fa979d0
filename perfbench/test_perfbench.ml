(* The benchmark's own statistics and input generators. *)

open Perfbench
module Delta = Ivc_incremental.Delta

let close a b = Float.abs (a -. b) < 1e-9

let test_ten_beyond () =
  let s = Array.init 1000 (fun i -> Float.of_int (i + 1)) in
  let p = Stats.percentile s 0.99 in
  Alcotest.(check int) "sample count" 1000 p.Stats.n;
  Alcotest.(check bool) "p99 of 1000 is rank 990" true (close p.Stats.value 990.0);
  Alcotest.(check bool) "level 0.99" true (close p.Stats.level 0.99);
  (* 200 samples cannot carry a p99 with ten beyond: lowered to rank 190 *)
  let s = Array.init 200 (fun i -> Float.of_int (i + 1)) in
  let p = Stats.percentile s 0.99 in
  Alcotest.(check bool) "lowered to rank 190" true (close p.Stats.value 190.0);
  Alcotest.(check bool) "level 0.95" true (close p.Stats.level 0.95);
  Alcotest.(check int) "count" 200 p.Stats.n;
  (* exactly ten samples lie beyond the reported value *)
  let beyond = Array.fold_left (fun k x -> if x > p.Stats.value then k + 1 else k) 0 s in
  Alcotest.(check int) "ten beyond" 10 beyond;
  (* the median of an odd count is the middle sample *)
  let p = Stats.percentile [| 3.0; 1.0; 2.0; 5.0; 4.0 |] 0.5 in
  Alcotest.(check bool) "tiny median" true (close p.Stats.value 3.0);
  Alcotest.(check bool) "tiny sets report the maximum" true
    (close (Stats.percentile [| 3.0; 1.0; 2.0 |] 0.99).Stats.value 3.0)

let test_failures_beyond_limit () =
  (* 980 fast ops and 20 failures: the failures are the tail *)
  let s = Array.init 1000 (fun i -> if i < 20 then Stats.failed else 1.0) in
  let p = Stats.percentile s 0.99 in
  Alcotest.(check bool) "p99 is a failure" true (p.Stats.value = infinity);
  Alcotest.(check bool) "reported at the ceiling" true
    (close (Stats.finite ~ceiling:60000.0 p) 60000.0);
  Alcotest.(check bool) "median unaffected" true (close (Stats.median s) 1.0);
  (* failures sort above any finite latency, however large: eleven of
     them make the ten-beyond p99 a failure *)
  let s = Array.init 1000 (fun i -> if i < 11 then Stats.failed else 1e12) in
  Alcotest.(check bool) "above every latency" true
    ((Stats.percentile s 0.99).Stats.value = infinity);
  let s = Array.init 1000 (fun i -> if i < 10 then Stats.failed else 1e12) in
  Alcotest.(check bool) "ten failures stay beyond p99" true
    ((Stats.percentile s 0.99).Stats.value = 1e12)

let entries = lazy (Inputs.slice_entries ())

let serve_of seed =
  Inputs.serve_inputs ~seed ~entries:(Lazy.force entries) ~rate:80.0 ~count:300
    ~miss_frac:0.3 ~hot_size:64

let test_schedule_deterministic () =
  let a = serve_of 11 and b = serve_of 11 and c = serve_of 12 in
  Alcotest.(check string) "same seed, same inputs" (Inputs.serve_digest a)
    (Inputs.serve_digest b);
  Alcotest.(check bool) "other seed, other inputs" true
    (Inputs.serve_digest a <> Inputs.serve_digest c);
  Alcotest.(check int) "miss count" 90 (Array.length a.Inputs.misses);
  let due = Array.map (fun r -> r.Inputs.due_s) a.Inputs.schedule in
  Alcotest.(check bool) "due times ascend" true
    (Array.for_all Fun.id (Array.mapi (fun i d -> i = 0 || d >= due.(i - 1)) due));
  Alcotest.(check int) "hot set size" 64 (Array.length a.Inputs.hot);
  Alcotest.(check bool) "hot set is seed-independent" true
    (Array.for_all2 ( == ) a.Inputs.hot c.Inputs.hot)

(* A small cloud keeps the test quick; the chain logic is the same. *)
let cloud = lazy (Spatial_data.Datasets.pollen_us ~scale:0.2 ())

let test_chains_deterministic () =
  let cloud = Lazy.force cloud in
  let cells = Inputs.stream_cells cloud `D3 in
  let chain seed = Inputs.stkde_chain ~seed ~stream:9 cloud cells ~len:120 in
  let d seed =
    let inst, deltas = chain seed in
    Inputs.chain_digest [| inst |] [| deltas |]
  in
  Alcotest.(check string) "same seed, same chain" (d 5) (d 5);
  Alcotest.(check bool) "other seed, other chain" true (d 5 <> d 6);
  let inst, deltas = chain 5 in
  let _, deltas6 = chain 6 in
  let _, longer = Inputs.stkde_chain ~seed:5 ~stream:9 cloud cells ~len:200 in
  Alcotest.(check bool) "a longer chain extends a shorter one" true
    (Array.sub longer 0 120 = deltas);
  Alcotest.(check bool) "the seed moves the chain, not the grid" true
    (inst.Ivc_grid.Stencil.w = (fst (chain 6)).Ivc_grid.Stencil.w && deltas <> deltas6);
  (* every delta is valid on the mirror it targets, and the mirror is
     always a window's point counts: never negative, and its total is
     the number of points in the window *)
  let final =
    Array.fold_left
      (fun m delta ->
        match Delta.apply_pure m delta with
        | Ok m -> m
        | Error e -> Alcotest.failf "invalid delta %s: %s" (Delta.describe delta) e)
      inst deltas
  in
  Alcotest.(check int) "size kept" (32 * 32 * 32) (Ivc_grid.Stencil.n_vertices final);
  let total = Array.fold_left ( + ) 0 final.Ivc_grid.Stencil.w in
  Alcotest.(check bool) "a window holds some points" true
    (total > 0 && total < Array.length cloud.Spatial_data.Points.points);
  (* exactly one jump per block of [jump_every]: the widest delta of
     each block *)
  let size = function Delta.Bump _ -> 1 | Delta.Batch ops -> Array.length ops | Delta.Extend _ -> 0 in
  let blocks = Array.length deltas / Inputs.jump_every in
  Alcotest.(check int) "three blocks" 3 blocks;
  for b = 0 to blocks - 1 do
    let sizes = Array.map size (Array.sub deltas (b * Inputs.jump_every) Inputs.jump_every) in
    let sorted = Array.copy sizes in
    Array.sort compare sorted;
    if sorted.(Inputs.jump_every - 1) < 4 * sorted.(Inputs.jump_every - 2) then
      Alcotest.failf "block %d has no jump standing out (sizes %d and %d)" b
        sorted.(Inputs.jump_every - 1) sorted.(Inputs.jump_every - 2)
  done

let test_metric_names () =
  let names =
    List.map (fun (n, _, _) -> n) Metrics.end_to_end
    @ List.map (fun (n, _, _) -> n) Metrics.per_layer
  in
  List.iter
    (fun n ->
      if not (Stats.valid_name n) then Alcotest.failf "bad metric name %S" n;
      match Metrics.unit_of n with
      | Some u when Stats.valid_unit u -> ()
      | _ -> Alcotest.failf "bad unit for %S" n)
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "rejects spaces" false (Stats.valid_name "p99 ms");
  Alcotest.(check bool) "rejects a leading dot" false (Stats.valid_name ".x");
  Alcotest.(check bool) "has setup_s" true (List.mem "setup_s" names)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "ten-beyond percentile" `Quick test_ten_beyond;
          Alcotest.test_case "failures beyond any limit" `Quick
            test_failures_beyond_limit;
          Alcotest.test_case "metric names" `Quick test_metric_names;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "schedule deterministic" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "drift chains deterministic" `Quick
            test_chains_deterministic;
        ] );
    ]
