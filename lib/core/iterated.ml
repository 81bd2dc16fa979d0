module Stencil = Ivc_grid.Stencil
module Snapshot = Ivc_persist.Snapshot
module Codec = Ivc_persist.Codec

type pass = Reverse | Restart | Cliques | Decreasing_weight

let pass_tag = function
  | Reverse -> 0
  | Restart -> 1
  | Cliques -> 2
  | Decreasing_weight -> 3

let pass_of_tag = function
  | 0 -> Some Reverse
  | 1 -> Some Restart
  | 2 -> Some Cliques
  | 3 -> Some Decreasing_weight
  | _ -> None

let order_of_pass inst starts = function
  | Restart ->
      let order = Array.init (Stencil.n_vertices inst) Fun.id in
      Array.sort
        (fun a b ->
          if starts.(a) <> starts.(b) then compare starts.(a) starts.(b)
          else compare a b)
        order;
      order
  | Reverse ->
      let order = Array.init (Stencil.n_vertices inst) Fun.id in
      Array.sort
        (fun a b ->
          if starts.(a) <> starts.(b) then compare starts.(b) starts.(a)
          else compare a b)
        order;
      order
  | Cliques -> Bipartite_decomp.post_order inst starts
  | Decreasing_weight -> Heuristics.largest_first_order inst

(* One first-fit recoloring sweep. Dropping a vertex and re-placing it
   by first fit can always reuse its old start, so validity and
   non-increase of every vertex's options are preserved throughout.
   Each re-fit goes through the kernel scratch — no interval lists. *)
let apply inst starts pass =
  let order = order_of_pass inst starts pass in
  let cur = Array.copy starts in
  let sc = Ivc_kernel.Ff.make_scratch inst in
  Array.iter
    (fun v -> cur.(v) <- Ivc_kernel.Ff.first_fit_for sc ~starts:cur v)
    order;
  cur

(* ---- checkpointing ---------------------------------------------------

   State between two recoloring sweeps is just (round, pass index, the
   maxcolor the round started from, best, current) — every sweep is a
   pure function of the current coloring. Checkpoints are taken at pass
   boundaries, where both colorings are complete and valid. *)

type checkpoint = {
  fp : int64;  (** instance fingerprint *)
  passes : int array;  (** pass tags, validated against the caller's *)
  round : int;  (** 1-based cycle counter *)
  pass_idx : int;  (** next pass to run within the round *)
  round_before : int;  (** best maxcolor when this round started *)
  best : int array;
  cur : int array;
}

let kind = "iterated"

let encode_checkpoint c =
  let b = Codec.W.create () in
  Codec.W.i64 b c.fp;
  Codec.W.int_array b c.passes;
  Codec.W.int b c.round;
  Codec.W.int b c.pass_idx;
  Codec.W.int b c.round_before;
  Codec.W.int_array b c.best;
  Codec.W.int_array b c.cur;
  Codec.W.contents b

let read_checkpoint r =
  let fp = Codec.R.i64 r in
  let passes = Codec.R.int_array r in
  let round = Codec.R.int r in
  let pass_idx = Codec.R.int r in
  let round_before = Codec.R.int r in
  let best = Codec.R.int_array r in
  let cur = Codec.R.int_array r in
  { fp; passes; round; pass_idx; round_before; best; cur }

let decode_checkpoint ~inst ~passes snap =
  match Snapshot.decode snap ~kind read_checkpoint with
  | Error _ as e -> e
  | Ok c ->
      let n = Stencil.n_vertices inst in
      let tags = Array.of_list (List.map pass_tag passes) in
      if c.fp <> Snapshot.fingerprint inst then
        Error Snapshot.Instance_mismatch
      else if c.passes <> tags then
        Error (Snapshot.Bad_payload "pass list mismatch")
      else if Array.length c.best <> n || Array.length c.cur <> n then
        Error (Snapshot.Bad_payload "coloring length mismatch")
      else if
        Array.exists (fun s -> s < 0) c.best
        || Array.exists (fun s -> s < 0) c.cur
      then Error (Snapshot.Bad_payload "negative start")
      else if c.round < 1 || c.pass_idx < 0 || c.pass_idx >= Array.length tags
      then Error (Snapshot.Bad_payload "cursor out of range")
      else if c.round_before < 0 then
        Error (Snapshot.Bad_payload "negative maxcolor")
      else Ok c

let run ?(max_rounds = 10) ?(cancel = fun () -> false) ?autosave ?resume inst
    starts ~passes =
  let w = (inst : Stencil.t).w in
  let passes_a = Array.of_list passes in
  let np = Array.length passes_a in
  let best, cur, round0, pass0, before0 =
    match resume with
    | Some (c : checkpoint) ->
        ( ref (Array.copy c.best),
          ref (Array.copy c.cur),
          c.round,
          c.pass_idx,
          c.round_before )
    | None -> (ref (Array.copy starts), ref (Array.copy starts), 1, 0, max_int)
  in
  let best_mc = ref (Coloring.maxcolor ~w !best) in
  let fp = lazy (Snapshot.fingerprint inst) in
  let tags = lazy (Array.map pass_tag passes_a) in
  let round = ref round0 and pass_idx = ref pass0 and before = ref before0 in
  (try
     while np > 0 && !round <= max_rounds do
       if !pass_idx = 0 then before := !best_mc;
       while !pass_idx < np do
         (* Cooperative cancellation and checkpointing between
            recoloring sweeps: the colorings are complete and valid at
            every pass boundary, so stopping here always returns an
            incumbent and a snapshot here always resumes cleanly. *)
         (match autosave with
         | Some a ->
             Ivc_persist.Autosave.tick a ~kind (fun () ->
                 encode_checkpoint
                   {
                     fp = Lazy.force fp;
                     passes = Lazy.force tags;
                     round = !round;
                     pass_idx = !pass_idx;
                     round_before = !before;
                     best = !best;
                     cur = !cur;
                   })
         | None -> ());
         if cancel () then raise Exit;
         cur := apply inst !cur passes_a.(!pass_idx);
         let mc = Coloring.maxcolor ~w !cur in
         if mc < !best_mc then begin
           best_mc := mc;
           best := Array.copy !cur
         end;
         incr pass_idx
       done;
       pass_idx := 0;
       if !best_mc >= !before then raise Exit;
       incr round
     done
   with Exit -> ());
  !best

let best_effort ?max_rounds ?cancel inst =
  run ?max_rounds ?cancel inst
    (snd (Algo.best inst))
    ~passes:[ Reverse; Cliques; Restart ]
