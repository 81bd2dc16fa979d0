module Stencil = Ivc_grid.Stencil
module Snapshot = Ivc_persist.Snapshot

type outcome = {
  lower_bound : int;
  upper_bound : int;
  starts : int array;
  proven_optimal : bool;
  nodes_hint : string;
  resumed : bool;
}

(* Which engine a snapshot belongs to. The checkpoint file is shared by
   every engine behind this front end; the kind tag written into the
   snapshot dispatches the resume to the engine that saved it. *)
type resume_plan =
  | Order_bb_plan of Order_bb.checkpoint
  | Cp_plan of Cp.checkpoint

let plan_resume ~inst snap =
  if (snap : Snapshot.t).kind = Order_bb.kind then
    Result.map (fun c -> Order_bb_plan c) (Order_bb.decode_checkpoint ~inst snap)
  else if snap.kind = Cp.kind then
    Result.map (fun c -> Cp_plan c) (Cp.decode_checkpoint ~inst snap)
  else
    Error
      (Snapshot.Wrong_kind
         { expected = Order_bb.kind ^ "|" ^ Cp.kind; got = snap.kind })

let solve ?(budget = 200_000) ?time_limit_s ?(cancel = fun () -> false)
    ?autosave ?resume ?warm inst =
  Ivc_obs.Span.record ~cat:"exact"
    ~args:
      [
        ("instance", Stencil.describe inst); ("budget", string_of_int budget);
      ]
    "exact.solve"
  @@ fun () ->
  let t0 = Ivc_obs.now_ns () in
  let remaining () =
    match time_limit_s with
    | None -> None
    | Some s -> Some (Float.max 0.01 (s -. Ivc_obs.elapsed_s ~since:t0))
  in
  let order_bb ?resume ?warm ~resumed () =
    match
      Order_bb.solve ~node_budget:budget ?time_limit_s:(remaining ()) ~cancel
        ?autosave ?resume ?warm inst
    with
    | Order_bb.Optimal (v, s) ->
        {
          lower_bound = v;
          upper_bound = v;
          starts = s;
          proven_optimal = true;
          nodes_hint = "order branch-and-bound";
          resumed;
        }
    | Order_bb.Bounds (l, u, s) ->
        {
          lower_bound = l;
          upper_bound = u;
          starts = s;
          proven_optimal = false;
          nodes_hint = "budget exhausted";
          resumed;
        }
  in
  let cp ?resume ?warm ~resumed ~lb ~fallback () =
    (* give CP half the remaining time, keep the rest for order-BB *)
    let cp_limit = Option.map (fun s -> s /. 2.0) (remaining ()) in
    match
      Cp.optimize ~budget:(budget * 10) ?time_limit_s:cp_limit ~cancel
        ?autosave ?resume ?warm inst
    with
    | Some (opt, starts) ->
        {
          lower_bound = max lb opt;
          upper_bound = opt;
          starts;
          proven_optimal = true;
          nodes_hint = "CP decision search";
          resumed;
        }
    | None -> fallback ()
  in
  match resume with
  | Some (Order_bb_plan c) -> order_bb ~resume:c ~resumed:true ()
  | Some (Cp_plan c) ->
      (* The killed run was in the CP engine: continue there, with the
         same fallback to order-BB it would have taken on exhaustion. *)
      cp ~resume:c ~resumed:true ~lb:c.Cp.lo
        ~fallback:(order_bb ~resumed:true)
        ()
  | None ->
      let lb = Ivc.Bounds.combined inst in
      let ((ub, ub_starts) as warm) =
        match warm with Some w -> w | None -> Ivc.Algo.best inst
      in
      if ub <= lb then
        {
          lower_bound = ub;
          upper_bound = ub;
          starts = ub_starts;
          proven_optimal = true;
          nodes_hint = "closed by clique bound";
          resumed = false;
        }
      else begin
        (* Small color count: CP decision via binary search is
           strongest. *)
        let nonzero =
          Array.fold_left
            (fun a x -> if x > 0 then a + 1 else a)
            0
            (inst : Stencil.t).w
        in
        let cp_ok = ub <= 256 && nonzero * (ub + 1) <= 500_000 in
        let order_bb = order_bb ~warm ~resumed:false in
        if cp_ok then cp ~warm ~resumed:false ~lb ~fallback:order_bb ()
        else order_bb ()
      end

let optimal_value ?budget ?time_limit_s ?cancel inst =
  let o = solve ?budget ?time_limit_s ?cancel inst in
  if o.proven_optimal then Some o.upper_bound else None
