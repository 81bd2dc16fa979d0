(* Observability layer: span recording and nesting, disabled-mode
   no-ops, exporter well-formedness (parsed back with the library's own
   JSON parser), counter atomicity across domains, and the pool's
   mutual-exclusion guarantee while spans are being recorded. *)

module Obs = Ivc_obs
module Json = Ivc_obs.Json
module S = Ivc_grid.Stencil
module Dag = Taskpar.Dag
module Pool = Taskpar.Pool

let with_recording f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ---- JSON document helpers ------------------------------------------ *)

let get name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

let events doc =
  match get "traceEvents" doc with
  | Json.List evs -> evs
  | _ -> Alcotest.fail "traceEvents is not a list"

let events_named name doc =
  List.filter (fun e -> Json.member "name" e = Some (Json.Str name)) (events doc)

let span_bounds e =
  let ts = Json.to_float (get "ts" e) in
  (ts, ts +. Json.to_float (get "dur" e))

(* ---- spans ------------------------------------------------------------ *)

let test_span_nesting () =
  let doc =
    with_recording (fun () ->
        let r =
          Obs.Span.record "outer" (fun () ->
              Obs.Span.record "inner" (fun () -> Sys.opaque_identity 1)
              + Obs.Span.record "inner" (fun () -> Sys.opaque_identity 2))
        in
        Alcotest.(check int) "span returns the body's value" 3 r;
        Obs.Export.chrome_trace ())
  in
  Alcotest.(check int) "three events" 3 (List.length (events doc));
  let outer =
    match events_named "outer" doc with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one outer span"
  in
  let o0, o1 = span_bounds outer in
  Alcotest.(check int) "two inner spans" 2 (List.length (events_named "inner" doc));
  List.iter
    (fun inner ->
      let i0, i1 = span_bounds inner in
      Alcotest.(check bool) "inner starts after outer" true (i0 >= o0);
      Alcotest.(check bool) "inner ends before outer" true (i1 <= o1 +. 1e-9))
    (events_named "inner" doc)

let test_span_records_on_exception () =
  let doc =
    with_recording (fun () ->
        (try Obs.Span.record "raises" (fun () -> failwith "boom") with
        | Failure _ -> ());
        Obs.Export.chrome_trace ())
  in
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (events_named "raises" doc))

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.Counter.make "test.disabled_counter" in
  let g = Obs.Gauge.make "test.disabled_gauge" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Gauge.set g 2.5;
  let r = Obs.Span.record "invisible" (fun () -> 7) in
  Alcotest.(check int) "span is just the body" 7 r;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.Gauge.value g);
  Alcotest.(check int) "no events recorded" 0
    (List.length (events (Obs.Export.chrome_trace ())))

(* ---- exporters -------------------------------------------------------- *)

let test_exports_well_formed () =
  let trace_s, metrics_s =
    with_recording (fun () ->
        let inst = Util.random_inst2 ~seed:7 ~x:8 ~y:8 ~bound:9 in
        ignore (Ivc.Greedy.color_in_order inst (S.row_major_order inst));
        ignore (Ivc_kernel.Par_sweep.color ~workers:2 inst);
        ( Json.to_string (Obs.Export.chrome_trace ()),
          Json.to_string (Obs.Export.metrics ()) ))
  in
  (* both documents re-parse, i.e. the emitters write valid JSON *)
  let trace = Json.parse trace_s in
  let metrics = Json.parse metrics_s in
  Alcotest.(check string) "displayTimeUnit" "ms"
    (match get "displayTimeUnit" trace with Json.Str s -> s | _ -> "");
  List.iter
    (fun e ->
      Alcotest.(check bool) "event has a name" true (Json.member "name" e <> None);
      Alcotest.(check string) "complete event" "X"
        (match get "ph" e with Json.Str s -> s | _ -> "");
      Alcotest.(check bool) "nonnegative duration" true
        (Json.to_float (get "dur" e) >= 0.0))
    (events trace);
  let counters = get "counters" metrics in
  let vertices = Json.to_float (get "greedy.vertices_colored" counters) in
  Alcotest.(check bool) "greedy counter advanced" true (vertices >= 64.0);
  (match get "spans" metrics with
  | Json.Obj aggs ->
      Alcotest.(check bool) "span aggregates present" true (aggs <> []);
      List.iter
        (fun (_, agg) ->
          Alcotest.(check bool) "agg count positive" true
            (Json.to_float (get "count" agg) > 0.0))
        aggs
  | _ -> Alcotest.fail "spans is not an object")

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "with \"quotes\", a \\ and a \n newline");
        ("n", Json.Num 1.5);
        ("big", Json.Num 123456789.0);
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.parse (Json.to_string v) = v);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* ---- multi-domain behaviour ------------------------------------------ *)

let test_counter_atomic_across_domains () =
  with_recording (fun () ->
      let c = Obs.Counter.make "test.atomic" in
      let per_domain = 25_000 in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Obs.Counter.incr c
                done))
      in
      List.iter Domain.join domains;
      Alcotest.(check int) "no lost increments" (4 * per_domain)
        (Obs.Counter.value c))

let test_pool_checked_with_spans () =
  with_recording (fun () ->
      let inst = Util.random_inst2 ~seed:35 ~x:6 ~y:6 ~bound:5 in
      let starts = Ivc.Heuristics.glf inst in
      let dag = Dag.of_coloring inst ~starts ~cost:(fun _ -> 1.0) in
      let conflicts u v =
        let adj = ref false in
        S.iter_neighbors inst u (fun x -> if x = v then adj := true);
        !adj
      in
      let work _ =
        let acc = ref 0 in
        for i = 1 to 2_000 do
          acc := !acc + i
        done;
        ignore (Sys.opaque_identity !acc)
      in
      let _, violations = Pool.run_checked dag ~workers:4 ~work ~conflicts in
      Alcotest.(check int) "exclusion holds while tracing" 0 violations;
      (* every task produced a span, and the counters saw every task *)
      let doc = Obs.Export.chrome_trace () in
      Alcotest.(check int) "one span per task" dag.Dag.n
        (List.length (events_named "pool.task" doc));
      Alcotest.(check int) "task counter" dag.Dag.n
        (Obs.Counter.value (Obs.Counter.make "pool.tasks_run")))

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick test_span_records_on_exception;
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "exports are well-formed" `Quick test_exports_well_formed;
    Alcotest.test_case "json roundtrip and rejection" `Quick test_json_roundtrip;
    Alcotest.test_case "counters atomic across domains" `Quick
      test_counter_atomic_across_domains;
    Alcotest.test_case "pool exclusion while tracing" `Quick
      test_pool_checked_with_spans;
  ]
