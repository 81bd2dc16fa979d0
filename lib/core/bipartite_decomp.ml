module Stencil = Ivc_grid.Stencil

type result = { starts : int array; part_colors : int; lower_bound : int }

let bd2 inst =
  match (inst : Stencil.t).dims with
  | Stencil.D3 _ -> invalid_arg "Bipartite_decomp.bd2: 3D instance"
  | Stencil.D2 (x, y) ->
      let w = (inst : Stencil.t).w in
      (* Row j = chain over i. Color each chain optimally, record the
         per-row start and the max row color RC. *)
      let c = Array.make (x * y) 0 in
      let rc = ref 0 in
      for j = 0 to y - 1 do
        let chain = Array.init x (fun i -> w.((i * y) + j)) in
        let row_starts, row_mc = Special.color_chain chain in
        for i = 0 to x - 1 do
          c.((i * y) + j) <- row_starts.(i)
        done;
        if row_mc > !rc then rc := row_mc
      done;
      let rc = !rc in
      let starts =
        Array.init (x * y) (fun v ->
            let j = v mod y in
            if j land 1 = 0 then c.(v) else rc + c.(v))
      in
      { starts; part_colors = rc; lower_bound = rc }

let bd3 inst =
  match (inst : Stencil.t).dims with
  | Stencil.D2 _ -> invalid_arg "Bipartite_decomp.bd3: 2D instance"
  | Stencil.D3 (x, y, z) ->
      let w = (inst : Stencil.t).w in
      let starts = Array.make (x * y * z) 0 in
      let lc = ref 0 and lb = ref 0 in
      let layers = Array.make z { starts = [||]; part_colors = 0; lower_bound = 0 } in
      for k = 0 to z - 1 do
        let layer =
          Stencil.init2 ~x ~y (fun i j -> w.((((i * y) + j) * z) + k))
        in
        let r = bd2 layer in
        layers.(k) <- r;
        let mc = Coloring.maxcolor ~w:(layer : Stencil.t).w r.starts in
        if mc > !lc then lc := mc;
        if r.lower_bound > !lb then lb := r.lower_bound
      done;
      let lc = !lc in
      for k = 0 to z - 1 do
        let r = layers.(k) in
        for i = 0 to x - 1 do
          for j = 0 to y - 1 do
            let v = (((i * y) + j) * z) + k in
            let s = r.starts.((i * y) + j) in
            starts.(v) <- (if k land 1 = 0 then s else lc + s)
          done
        done
      done;
      { starts; part_colors = lc; lower_bound = !lb }

let bd inst = if Stencil.is_3d inst then bd3 inst else bd2 inst

let post_order inst starts =
  let n = Stencil.n_vertices inst in
  let cliques = Heuristics.clique_order inst in
  let seen = Array.make n false in
  let order = ref [] in
  let push v =
    if not seen.(v) then begin
      seen.(v) <- true;
      order := v :: !order
    end
  in
  Array.iter
    (fun c ->
      let sorted = Array.copy c in
      Array.sort
        (fun a b ->
          if starts.(a) <> starts.(b) then compare starts.(a) starts.(b)
          else compare a b)
        sorted;
      Array.iter push sorted)
    cliques;
  (* degenerate instances: vertices in no block clique *)
  for v = 0 to n - 1 do
    push v
  done;
  Array.of_list (List.rev !order)

let post inst starts =
  let order = post_order inst starts in
  let current = Array.copy starts in
  let sc = Ivc_kernel.Ff.make_scratch inst in
  (* Recolor one vertex at a time: drop its interval and first-fit it
     against all other currently colored vertices. *)
  Array.iter
    (fun v -> current.(v) <- Ivc_kernel.Ff.first_fit_for sc ~starts:current v)
    order;
  current

let bdp inst = post inst (bd inst).starts
