module Stencil = Ivc_grid.Stencil

type status = Cp.status =
  | Optimal of int * int array
  | Bounds of int * int * int array

let c_bb_nodes = Ivc_obs.Counter.make "exact.bb_nodes"
let c_forced = Ivc_obs.Counter.make "exact.bb_forced_moves"
let c_incumbents = Ivc_obs.Counter.make "exact.bb_incumbents"

let lower_bound_of = function Optimal (v, _) -> v | Bounds (lb, _, _) -> lb
let upper_bound_of = function Optimal (v, _) -> v | Bounds (_, ub, _) -> ub
let is_optimal = function Optimal _ -> true | Bounds _ -> false
let starts_of = function Optimal (_, s) -> s | Bounds (_, _, s) -> s

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
    ?(cancel = fun () -> false) inst =
  let past_deadline =
    match time_limit_s with
    | None -> fun () -> false
    | Some s ->
        let t0 = Ivc_obs.now_ns () in
        fun () -> Ivc_obs.elapsed_s ~since:t0 > s
  in
  let n = Stencil.n_vertices inst in
  let w = (inst : Stencil.t).w in
  let lb = Ivc.Bounds.combined inst in
  let ub, ub_starts = randomized_ub inst restarts (Ivc.Algo.best inst) in
  if ub <= lb then Optimal (ub, ub_starts)
  else begin
    let best = ref ub and best_starts = ref ub_starts in
    let starts = Array.make n (-1) in
    let colored = ref 0 in
    let nodes = ref 0 in
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
    let sc = Ivc_kernel.Ff.make_scratch inst in
    let first_fit v = Ivc_kernel.Ff.first_fit_for sc ~starts v in
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
    let exception Done in
    let rec dfs cur_max =
      incr nodes;
      if !nodes > node_budget then raise Out_of_budget;
      if !nodes land 1023 = 0 && (past_deadline () || cancel ()) then
        raise Out_of_budget;
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
          let s = first_fit v in
          do_color v s;
          dfs (max cur_max (s + w.(v)));
          undo_color v
        end
        else
          Array.iter
            (fun v ->
              if starts.(v) < 0 then begin
                let s = first_fit v in
                let e = s + w.(v) in
                if max cur_max e < !best then begin
                  do_color v s;
                  dfs (max cur_max e);
                  undo_color v
                end
              end)
            branch_vertices
      end
    in
    let status =
      match dfs 0 with
      | () -> Optimal (!best, !best_starts)
      | exception Done -> Optimal (!best, !best_starts)
      | exception Out_of_budget -> Bounds (lb, !best, !best_starts)
    in
    Ivc_obs.Counter.add c_bb_nodes !nodes;
    status
  end
