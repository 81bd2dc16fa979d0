(* `bench incremental` — the headline number of the incremental-repair
   engine: how much cheaper a 1-cell weight bump on the 512x512 GLL
   grid is when repaired in place than when the whole grid is re-swept.

   Two engines walk the same seeded bump sequence in lockstep: one
   repairs with the default front budget, the other is forced through
   the full-sweep fallback with budget 0. Both paths end at the same
   canonical coloring (asserted), both pay their certificate — a
   regional one for repairs, the full gate for sweeps — so the ratio
   compares the two answers a server could actually return. *)

module S = Ivc_grid.Stencil
module D = Ivc_incremental.Delta
module E = Ivc_incremental.Engine
module Json = Ivc_obs.Json

let gll_512 () =
  let rng = Spatial_data.Rng.create 11 in
  S.init2 ~x:512 ~y:512 (fun _ _ -> Spatial_data.Rng.int rng 50)

let apply_exn eng ?budget d =
  match E.apply ?budget eng d with
  | Ok o -> o
  | Error e ->
      Format.printf "bench incremental: %s@." (E.error_to_string e);
      exit 1

(* p-th percentile, in microseconds *)
let pct samples p = 1e6 *. Perfprof.Stats.percentile samples p

let summary ?(bumps = 128) () =
  let inst = gll_512 () in
  let fast = E.create inst and slow = E.create inst in
  let n = S.n_vertices inst in
  let rng = Spatial_data.Rng.create 99 in
  let repaired = ref 0 and front = ref 0 in
  let rt = Array.make bumps 0.0 and st = Array.make bumps 0.0 in
  for k = 0 to bumps - 1 do
    let d =
      D.Bump
        { v = Spatial_data.Rng.int rng n; dw = 1 + Spatial_data.Rng.int rng 3 }
    in
    let t0 = Ivc_obs.now_ns () in
    let o = apply_exn fast d in
    rt.(k) <- Ivc_obs.elapsed_s ~since:t0;
    (match o.E.provenance with
    | E.Repaired { front_cells; _ } ->
        incr repaired;
        front := !front + front_cells
    | E.Resolved -> ());
    let t1 = Ivc_obs.now_ns () in
    ignore (apply_exn slow ~budget:0 d);
    st.(k) <- Ivc_obs.elapsed_s ~since:t1
  done;
  if E.starts fast <> E.starts slow then begin
    Format.printf
      "bench incremental: repair and full resolve disagree on the final \
       coloring@.";
    exit 1
  end;
  let speedup = pct st 0.5 /. Float.max 1e-3 (pct rt 0.5) in
  Format.printf
    "bench incremental: 512x512 GLL, %d 1-cell bumps: repair p50=%.1fus \
     p95=%.1fus vs full resolve p50=%.1fus p95=%.1fus — %.0fx \
     (repaired=%d/%d, mean front=%.1f cells)@."
    bumps (pct rt 0.5) (pct rt 0.95) (pct st 0.5) (pct st 0.95) speedup
    !repaired bumps
    (Float.of_int !front /. Float.of_int (max 1 !repaired));
  Json.Obj
    [
      ("n", Json.Num (Float.of_int n));
      ("bumps", Json.Num (Float.of_int bumps));
      ("repaired", Json.Num (Float.of_int !repaired));
      ("resolved", Json.Num (Float.of_int (bumps - !repaired)));
      ("front_cells", Json.Num (Float.of_int !front));
      ("repair_p50_us", Json.Num (pct rt 0.5));
      ("repair_p95_us", Json.Num (pct rt 0.95));
      ("resolve_p50_us", Json.Num (pct st 0.5));
      ("resolve_p95_us", Json.Num (pct st 0.95));
      ("speedup_p50", Json.Num speedup);
    ]
