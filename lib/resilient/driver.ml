module Stencil = Ivc_grid.Stencil
module Snapshot = Ivc_persist.Snapshot
module Codec = Ivc_persist.Codec

type provenance =
  | Exact
  | Heuristic of string
  | Fallback
  | Resumed of provenance

type outcome = {
  starts : int array;
  maxcolor : int;
  lower_bound : int;
  provenance : provenance;
  proven_optimal : bool;
  elapsed_s : float;
  deadline_remaining_s : float option;
  resumed : bool;
}

let rec provenance_to_string = function
  | Exact -> "exact"
  | Heuristic h -> "heuristic:" ^ h
  | Fallback -> "fallback"
  | Resumed p -> "resumed+" ^ provenance_to_string p

let rec provenance_of_string s =
  let prefixed p = String.length s > String.length p
    && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if s = "exact" then Some Exact
  else if s = "fallback" then Some Fallback
  else if prefixed "heuristic:" then Some (Heuristic (after "heuristic:"))
  else if prefixed "resumed+" then
    Option.map (fun p -> Resumed p) (provenance_of_string (after "resumed+"))
  else None

let c_exact = Ivc_obs.Counter.make "resilient.portfolio_exact"
let c_heuristic = Ivc_obs.Counter.make "resilient.portfolio_heuristic"
let c_fallback = Ivc_obs.Counter.make "resilient.portfolio_fallback"
let c_rejected = Ivc_obs.Counter.make "resilient.portfolio_rejected"
let c_resumes = Ivc_obs.Counter.make "persist.resumes"

(* ---- checkpointing ---------------------------------------------------

   The driver writes its own "driver"-kind snapshot at stage boundaries
   — the certified incumbent plus the tightest lower bound, enough to
   re-seed the portfolio — and hands the same autosave token to the
   stages, which overwrite the file with their finer-grained kinds
   ("iterated", "cp-opt") while they run. A resume therefore
   holds whatever the killed run was doing last, and [decode_resume]
   dispatches it back to that point in the chain. *)

type seed = {
  fp : int64;
  lb : int;
  starts : int array;
  prov : provenance;
  proven : bool;
}

type resume =
  | Seed of seed
  | Improve of Ivc.Iterated.checkpoint
  | Exact_stage of Ivc_exact.Cp.checkpoint

let driver_kind = "driver"

(* The pass schedule of the improve stage; [decode_resume] validates
   "iterated" snapshots against it. *)
let improve_passes = Ivc.Iterated.[ Reverse; Cliques; Restart ]

let encode_seed c =
  let b = Codec.W.create () in
  Codec.W.i64 b c.fp;
  Codec.W.int b c.lb;
  Codec.W.int_array b c.starts;
  Codec.W.string b (provenance_to_string c.prov);
  Codec.W.bool b c.proven;
  Codec.W.contents b

let read_seed r =
  let fp = Codec.R.i64 r in
  let lb = Codec.R.int r in
  let starts = Codec.R.int_array r in
  let prov_s = Codec.R.string r in
  let proven = Codec.R.bool r in
  (fp, lb, starts, prov_s, proven)

let decode_seed ~inst snap =
  match Snapshot.decode snap ~kind:driver_kind read_seed with
  | Error _ as e -> e
  | Ok (fp, lb, starts, prov_s, proven) -> (
      if fp <> Snapshot.fingerprint inst then Error Snapshot.Instance_mismatch
      else if Array.length starts <> Stencil.n_vertices inst then
        Error (Snapshot.Bad_payload "incumbent length mismatch")
      else if lb < 0 then Error (Snapshot.Bad_payload "negative lower bound")
      else
        match provenance_of_string prov_s with
        | None -> Error (Snapshot.Bad_payload ("unknown provenance " ^ prov_s))
        | Some prov -> Ok { fp; lb; starts; prov; proven })

let decode_resume ~inst snap =
  let k = (snap : Snapshot.t).kind in
  if k = driver_kind then Result.map (fun s -> Seed s) (decode_seed ~inst snap)
  else if k = Ivc.Iterated.kind then
    Result.map
      (fun c -> Improve c)
      (Ivc.Iterated.decode_checkpoint ~inst ~passes:improve_passes snap)
  else
    Result.map
      (fun c -> Exact_stage c)
      (Ivc_exact.Cp.decode_checkpoint ~inst snap)

(* ---- out-of-core solves ----------------------------------------------

   Larger-than-RAM instances bypass the portfolio (every stage needs
   the full starts array) and stream through the out-of-core tiled
   engine instead. Certification is double-gated: the streaming verify
   re-reads every spilled tile with both-side halos and checks every
   adjacent interval pair under the same memory bound as the solve,
   and — when the instance is small enough to materialize — the
   coloring additionally passes the ordinary in-core {!Cert} gate, so
   the streaming verifier is itself cross-validated on every
   test-scale run. *)

type ooc_outcome = {
  ooc_maxcolor : int;
  ooc_stats : Ivc_ooc.Ooc.stats;
  ooc_cert_in_core : bool;
}

type ooc_error =
  | Ooc_failed of Ivc_ooc.Ooc.error
  | Ooc_cert of Cert.error

let ooc_error_to_string = function
  | Ooc_failed e -> Ivc_ooc.Ooc.error_to_string e
  | Ooc_cert e -> Cert.to_string e

(* In-core cross-certification cap: a million cells is ~16 MB of
   weights + starts, cheap next to the solve it double-checks. *)
let ooc_cert_threshold = 1 lsl 20

let solve_ooc ?tile ?mem_budget ~dir src =
  match Ivc_ooc.Ooc.solve ?tile ?mem_budget ~dir src with
  | Error e -> Error (Ooc_failed e)
  | Ok st -> (
      match Ivc_ooc.Ooc.verify ?tile ?mem_budget ~dir src with
      | Error e -> Error (Ooc_failed e)
      | Ok mc when mc <> st.Ivc_ooc.Ooc.maxcolor ->
          (* the solve's running maxcolor and the verifier's must agree;
             a mismatch means a spill changed between solve and verify *)
          Error
            (Ooc_cert
               (Cert.Wrong_length
                  { expected = st.Ivc_ooc.Ooc.maxcolor; got = mc }))
      | Ok mc ->
          if Ivc_ooc.Source.n_vertices src <= ooc_cert_threshold then
            match Ivc_ooc.Ooc.read_starts ?tile ~dir src with
            | Error e -> Error (Ooc_failed e)
            | Ok starts -> (
                let inst = Ivc_ooc.Source.materialize src in
                match Cert.check inst starts with
                | Error e -> Error (Ooc_cert e)
                | Ok mc' when mc' <> mc ->
                    Error (Ooc_cert (Cert.Wrong_length { expected = mc; got = mc' }))
                | Ok _ ->
                    Ok
                      {
                        ooc_maxcolor = mc;
                        ooc_stats = st;
                        ooc_cert_in_core = true;
                      })
          else
            Ok { ooc_maxcolor = mc; ooc_stats = st; ooc_cert_in_core = false })

let solve ?deadline_s ?deadline ?cancel ?(budget = 200_000) ?(improve = true)
    ?(exact = true) ?autosave ?resume inst =
  Ivc_obs.Span.record ~cat:"resilient"
    ~args:[ ("instance", Stencil.describe inst) ]
    "resilient.solve"
  @@ fun () ->
  let t0 = Ivc_obs.now_ns () in
  (* A caller-owned token makes the driver reentrant for services: the
     server mints one token per request at admission time (so queue
     wait counts against the request's deadline) and threads it
     through; the driver never owns the clock it is racing. *)
  let token =
    match deadline with
    | Some t -> t
    | None -> Deadline.make ?seconds:deadline_s ()
  in
  let cancel =
    match cancel with
    | Some f -> Deadline.combine token f
    | None -> Deadline.as_fn token
  in
  if resume <> None then Ivc_obs.Counter.incr c_resumes;
  let lb = ref (Ivc.Bounds.combined inst) in
  (* The certified incumbent: only colorings that pass the gate get
     in, so whatever stage the deadline interrupts, what we hand back
     was independently validated. *)
  let best = ref None in
  let last_reject = ref None in
  let consider ?(proven = false) ~provenance starts =
    match Cert.check inst starts with
    | Error e -> last_reject := Some e
    | Ok mc -> (
        match !best with
        | Some (_, bmc, _, _) when mc > bmc -> ()
        | Some (_, bmc, _, _) when mc = bmc && not proven -> ()
        | _ -> best := Some (starts, mc, provenance, proven))
  in
  let fp = lazy (Snapshot.fingerprint inst) in
  let tick_seed () =
    match (autosave, !best) with
    | Some a, Some (starts, mc, prov, proven) ->
        Ivc_persist.Autosave.tick a ~kind:driver_kind (fun () ->
            encode_seed
              {
                fp = Lazy.force fp;
                lb = (if proven then mc else min !lb mc);
                starts;
                prov;
                proven;
              })
    | _ -> ()
  in
  (* Re-seed the incumbent from a snapshot. Everything goes through the
     same [consider] gate: a snapshot whose coloring does not certify
     is discarded exactly like any other candidate (fail closed). *)
  (match resume with
  | None -> ()
  | Some (Seed s) ->
      lb := max !lb s.lb;
      consider ~proven:s.proven
        ~provenance:(match s.prov with Resumed _ as p -> p | p -> Resumed p)
        s.starts
  | Some (Improve c) ->
      consider ~provenance:(Resumed (Heuristic "IGR")) c.Ivc.Iterated.best
  | Some (Exact_stage c) ->
      lb := max !lb c.Ivc_exact.Cp.lo;
      consider
        ~provenance:(Resumed (Heuristic "CP incumbent"))
        c.Ivc_exact.Cp.best_starts);
  (* Stage 0 — the guaranteed fallback. Runs unconditionally (even
     with an already-expired deadline the caller is owed *a* valid
     coloring); the allocation-free kernel row-major sweep is the
     cheapest complete one — the same coloring as GLL, directly on
     the kernel so the fallback cost is one flat pass. *)
  Ivc_obs.Span.record ~cat:"resilient" "resilient.stage_fallback" (fun () ->
      consider ~provenance:Fallback
        (Ivc_kernel.Ff.color_in_order inst (Stencil.row_major_order inst)));
  (* Stage 1 — the heuristic portfolio, cheapest quality upgrades.
     Skipped on resume: the killed run already folded these candidates
     into the incumbent the snapshot carries. The fallback is GLL's
     coloring, so GLL is not run again. *)
  if resume = None && not (cancel ()) then
    Ivc_obs.Span.record ~cat:"resilient" "resilient.stage_heuristics"
      (fun () ->
        List.iter
          (fun (a : Ivc.Algo.t) ->
            if a.Ivc.Algo.name <> "GLL" && not (cancel ()) then
              consider ~provenance:(Heuristic a.Ivc.Algo.name)
                (a.Ivc.Algo.run inst))
          Ivc.Algo.all);
  tick_seed ();
  (* Stage 1.5 — iterated-greedy improvement of the incumbent. Skipped
     when resuming into the exact stage (the killed run had finished
     improving); resumed mid-cycle when the snapshot is its own. *)
  let improve_resume =
    match resume with Some (Improve c) -> Some c | _ -> None
  in
  let skip_improve =
    match resume with Some (Exact_stage _) -> true | _ -> false
  in
  if improve && (not skip_improve) && not (cancel ()) then begin
    match !best with
    | Some (starts, _, prov, false) ->
        Ivc_obs.Span.record ~cat:"resilient" "resilient.stage_improve"
          (fun () ->
            let improved =
              Ivc.Iterated.run ~cancel ?autosave ?resume:improve_resume inst
                starts ~passes:improve_passes
            in
            let provenance =
              match prov with
              | Heuristic h -> Heuristic (h ^ "+IGR")
              | Resumed (Heuristic h) -> Resumed (Heuristic (h ^ "+IGR"))
              | p -> p
            in
            consider ~provenance improved)
    | _ -> ()
  end;
  tick_seed ();
  (* Stage 2 — exact, on whatever time remains, warm-started from the
     certified incumbent and the lower bound computed above, so an
     incumbent at the bound closes without a search. A browned-out
     server turns this stage off wholesale ([exact = false]): the
     certified heuristic incumbent ships as-is. *)
  if exact && not (cancel ()) then begin
    let exact_resume =
      match resume with Some (Exact_stage c) -> Some c | _ -> None
    in
    let warm =
      Option.map
        (fun (starts, ub, _, _) -> { Ivc_exact.Cp.lb = !lb; ub; starts })
        !best
    in
    let o =
      Ivc_exact.Optimize.solve ~budget
        ?time_limit_s:(Deadline.remaining_s token)
        ~cancel ?autosave ?resume:exact_resume ?warm inst
    in
    lb := max !lb o.Ivc_exact.Optimize.lower_bound;
    let wrap p = if exact_resume <> None then Resumed p else p in
    if o.Ivc_exact.Optimize.proven_optimal then
      consider ~proven:true ~provenance:(wrap Exact)
        o.Ivc_exact.Optimize.starts
    else
      consider
        ~provenance:(wrap (Heuristic "CP incumbent"))
        o.Ivc_exact.Optimize.starts
  end;
  tick_seed ();
  match !best with
  | None ->
      (* fail closed: nothing certified — surface the typed rejection
         instead of returning an unchecked coloring *)
      Ivc_obs.Counter.incr c_rejected;
      Error
        (Option.value !last_reject
           ~default:(Cert.Wrong_length { expected = -1; got = -1 }))
  | Some (starts, maxcolor, provenance, proven) ->
      (* An answer at its certified lower bound is optimal, whichever
         stage produced it. *)
      let proven = proven || maxcolor <= !lb in
      let rec base = function Resumed p -> base p | p -> p in
      (match base provenance with
      | Exact -> Ivc_obs.Counter.incr c_exact
      | Heuristic _ -> Ivc_obs.Counter.incr c_heuristic
      | Fallback | Resumed _ -> Ivc_obs.Counter.incr c_fallback);
      let lower_bound = if proven then maxcolor else !lb in
      Ok
        {
          starts;
          maxcolor;
          lower_bound;
          provenance;
          proven_optimal = proven;
          elapsed_s = Ivc_obs.elapsed_s ~since:t0;
          deadline_remaining_s = Deadline.remaining_s token;
          resumed = resume <> None;
        }
