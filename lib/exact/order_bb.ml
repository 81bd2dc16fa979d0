module Stencil = Ivc_grid.Stencil
module Snapshot = Ivc_persist.Snapshot
module Codec = Ivc_persist.Codec

type status = Optimal of int * int array | Bounds of int * int * int array

let c_bb_nodes = Ivc_obs.Counter.make "exact.bb_nodes"
let c_forced = Ivc_obs.Counter.make "exact.bb_forced_moves"
let c_incumbents = Ivc_obs.Counter.make "exact.bb_incumbents"

let lower_bound_of = function Optimal (v, _) -> v | Bounds (lb, _, _) -> lb
let upper_bound_of = function Optimal (v, _) -> v | Bounds (_, ub, _) -> ub
let is_optimal = function Optimal _ -> true | Bounds _ -> false
let starts_of = function Optimal (_, s) -> s | Bounds (_, _, s) -> s

(* ---- checkpointing ---------------------------------------------------

   The search is a deterministic depth-first exploration of the order
   space: given the instance, the branch order and the incumbent, the
   subtree below any node is a pure function of the path that reached
   it. So the open-node frontier of a DFS is exactly its current path,
   and a checkpoint is (incumbent, bounds, node count, path), where the
   path stores for each depth the index into [branch_vertices] that was
   descended into (or [forced_move] for a forced move, which has a
   single deterministic child). Resume replays the path — re-coloring
   each vertex by the same deterministic first fit, skipping bound
   checks because the ancestors were entered before deeper incumbents
   tightened [best] — and continues the sibling loops from the stored
   cursors. Replay costs O(path length), not O(nodes explored). *)

type checkpoint = {
  fp : int64;  (** instance fingerprint *)
  lb : int;
  best : int;  (** incumbent maxcolor *)
  best_starts : int array;
  nodes : int;  (** nodes already spent (budgets are cumulative) *)
  path : int array;  (** DFS frontier: cursor per depth *)
}

let kind = "order-bb"
let forced_move = -2

let encode_checkpoint c =
  let b = Codec.W.create () in
  Codec.W.i64 b c.fp;
  Codec.W.int b c.lb;
  Codec.W.int b c.best;
  Codec.W.int_array b c.best_starts;
  Codec.W.int b c.nodes;
  Codec.W.int_array b c.path;
  Codec.W.contents b

let read_checkpoint r =
  let fp = Codec.R.i64 r in
  let lb = Codec.R.int r in
  let best = Codec.R.int r in
  let best_starts = Codec.R.int_array r in
  let nodes = Codec.R.int r in
  let path = Codec.R.int_array r in
  { fp; lb; best; best_starts; nodes; path }

let decode_checkpoint ~inst snap =
  match Snapshot.decode snap ~kind read_checkpoint with
  | Error _ as e -> e
  | Ok c ->
      let n = Stencil.n_vertices inst in
      if c.fp <> Snapshot.fingerprint inst then
        Error Snapshot.Instance_mismatch
      else if Array.length c.best_starts <> n then
        Error (Snapshot.Bad_payload "incumbent length mismatch")
      else if c.nodes < 0 || c.best < 0 || c.lb < 0 then
        Error (Snapshot.Bad_payload "negative counter")
      else if
        Array.exists (fun i -> i <> forced_move && (i < 0 || i >= n)) c.path
      then Error (Snapshot.Bad_payload "path cursor out of range")
      else Ok c

let checkpoint_of_incumbent inst ~lb ~best ~best_starts =
  {
    fp = Snapshot.fingerprint inst;
    lb;
    best;
    best_starts;
    nodes = 0;
    path = [||];
  }

(* ---- search ---------------------------------------------------------- *)

(* Deterministic xorshift for the randomized restarts. *)
let shuffle seed a =
  let st = ref ((seed * 2654435761) + 1) in
  let next () =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    x land max_int
  in
  for i = Array.length a - 1 downto 1 do
    let j = next () mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let randomized_ub inst restarts (ub, ub_starts) =
  let n = Stencil.n_vertices inst in
  let w = (inst : Stencil.t).w in
  let best = ref ub and best_starts = ref ub_starts in
  for r = 1 to restarts do
    let order = Array.init n Fun.id in
    shuffle r order;
    let starts = Ivc.Greedy.color_in_order inst order in
    let mc = Ivc.Coloring.maxcolor ~w starts in
    if mc < !best then begin
      best := mc;
      best_starts := starts
    end
  done;
  (!best, !best_starts)

exception Out_of_budget

let solve ?(node_budget = 200_000) ?(restarts = 8) ?time_limit_s
    ?(cancel = fun () -> false) ?autosave ?resume ?warm inst =
  let past_deadline =
    match time_limit_s with
    | None -> fun () -> false
    | Some s ->
        let t0 = Ivc_obs.now_ns () in
        fun () -> Ivc_obs.elapsed_s ~since:t0 > s
  in
  let n = Stencil.n_vertices inst in
  let w = (inst : Stencil.t).w in
  let lb =
    let computed = Ivc.Bounds.combined inst in
    match resume with None -> computed | Some c -> max computed c.lb
  in
  (* On resume the snapshot's incumbent replaces the heuristic warm
     start: re-running the restarts could only find a coloring the
     interrupted run already dominated, and skipping them keeps the
     resumed search byte-for-byte the continuation of the killed one. *)
  let ub, ub_starts =
    match resume with
    | Some c -> (c.best, Array.copy c.best_starts)
    | None ->
        randomized_ub inst restarts
          (match warm with Some w -> w | None -> Ivc.Algo.best inst)
  in
  if ub <= lb then Optimal (ub, ub_starts)
  else begin
    let best = ref ub and best_starts = ref ub_starts in
    let starts = Array.make n (-1) in
    let colored = ref 0 in
    (* A saved count includes the node being entered, which the resume
       enters again; a frontier-less checkpoint counts nothing yet. *)
    let nodes =
      ref (match resume with Some c -> max 0 (c.nodes - 1) | None -> 0)
    in
    (* Zero-weight vertices never conflict: fix them at 0 up front. *)
    let branch_vertices = ref [] in
    for v = n - 1 downto 0 do
      if w.(v) = 0 then begin
        starts.(v) <- 0;
        incr colored
      end
      else branch_vertices := v :: !branch_vertices
    done;
    let branch_vertices = Array.of_list !branch_vertices in
    (* Heavier vertices first makes good incumbents appear early. *)
    Array.sort (fun a b -> compare w.(b) w.(a)) branch_vertices;
    let first_fit v =
      let neigh = ref [] in
      Stencil.iter_neighbors inst v (fun u ->
          if starts.(u) >= 0 && w.(u) > 0 then
            neigh := Ivc.Interval.make ~start:starts.(u) ~len:w.(u) :: !neigh);
      Ivc.Greedy.first_fit ~len:w.(v) !neigh
    in
    (* Incremental count of uncolored neighbors, so that "forced"
       vertices (all neighbors colored) are detected in O(degree). *)
    let unc = Array.make n 0 in
    for v = 0 to n - 1 do
      Stencil.iter_neighbors inst v (fun u -> if starts.(u) < 0 then unc.(v) <- unc.(v) + 1)
    done;
    let do_color v s =
      starts.(v) <- s;
      incr colored;
      Stencil.iter_neighbors inst v (fun u -> unc.(u) <- unc.(u) - 1)
    in
    let undo_color v =
      starts.(v) <- -1;
      decr colored;
      Stencil.iter_neighbors inst v (fun u -> unc.(u) <- unc.(u) + 1)
    in
    let find_forced () =
      let forced = ref (-1) in
      (try
         Array.iter
           (fun v ->
             if starts.(v) < 0 && unc.(v) = 0 then begin
               forced := v;
               raise Exit
             end)
           branch_vertices
       with Exit -> ());
      !forced
    in
    (* [cursor.(d)] is the choice taken at depth [d] on the current
       path; [cur_depth] the depth of the node being entered. Together
       they are the live frontier the autosave thunk serializes. *)
    let cursor = Array.make (n + 1) 0 in
    let cur_depth = ref 0 in
    let fp = Snapshot.fingerprint inst in
    let snapshot_payload () =
      encode_checkpoint
        {
          fp;
          lb;
          best = !best;
          best_starts = !best_starts;
          nodes = !nodes;
          path = Array.sub cursor 0 !cur_depth;
        }
    in
    let rpath = match resume with Some c -> c.path | None -> [||] in
    let replay = ref (Array.length rpath) in
    let exception Done in
    let rec dfs depth cur_max =
      if !replay > 0 && depth >= !replay then replay := 0;
      if depth < !replay then replay_step depth cur_max
      else begin
        incr nodes;
        cur_depth := depth;
        if !nodes > node_budget then raise Out_of_budget;
        if !nodes land 1023 = 0 && (past_deadline () || cancel ()) then
          raise Out_of_budget;
        (match autosave with
        | Some a when !nodes land 15 = 0 ->
            Ivc_persist.Autosave.tick a ~kind snapshot_payload
        | _ -> ());
        if cur_max >= !best then ()
        else if !colored = n then begin
          best := cur_max;
          best_starts := Array.copy starts;
          Ivc_obs.Counter.incr c_incumbents;
          if !best <= lb then raise Done
        end
        else begin
          (* Forced move: a vertex whose neighbors are all colored gets
             its first-fit interval without branching (its placement does
             not constrain anyone else). *)
          let forced = find_forced () in
          if forced >= 0 then begin
            let v = forced in
            Ivc_obs.Counter.incr c_forced;
            cursor.(depth) <- forced_move;
            let s = first_fit v in
            do_color v s;
            dfs (depth + 1) (max cur_max (s + w.(v)));
            undo_color v
          end
          else explore depth cur_max 0
        end
      end
    and explore depth cur_max from_idx =
      for idx = from_idx to Array.length branch_vertices - 1 do
        let v = branch_vertices.(idx) in
        if starts.(v) < 0 then begin
          let s = first_fit v in
          let e = s + w.(v) in
          if max cur_max e < !best then begin
            cursor.(depth) <- idx;
            do_color v s;
            dfs (depth + 1) (max cur_max e);
            undo_color v
          end
        end
      done
    (* Replay of one frontier step: unconditional (no node accounting,
       no pruning — the original search entered this node under an
       incumbent no tighter than the restored one), then the sibling
       loop continues where the killed run would have. *)
    and replay_step depth cur_max =
      let step = rpath.(depth) in
      if step = forced_move then begin
        let v = find_forced () in
        if v < 0 then invalid_arg "Order_bb: corrupt checkpoint path";
        cursor.(depth) <- forced_move;
        let s = first_fit v in
        do_color v s;
        dfs (depth + 1) (max cur_max (s + w.(v)));
        undo_color v
      end
      else begin
        let v = branch_vertices.(step) in
        if starts.(v) >= 0 then invalid_arg "Order_bb: corrupt checkpoint path";
        cursor.(depth) <- step;
        let s = first_fit v in
        let e = s + w.(v) in
        do_color v s;
        dfs (depth + 1) (max cur_max e);
        undo_color v;
        explore depth cur_max (step + 1)
      end
    in
    let status =
      match dfs 0 0 with
      | () -> Optimal (!best, !best_starts)
      | exception Done -> Optimal (!best, !best_starts)
      | exception Out_of_budget -> Bounds (lb, !best, !best_starts)
    in
    Ivc_obs.Counter.add c_bb_nodes !nodes;
    status
  end
