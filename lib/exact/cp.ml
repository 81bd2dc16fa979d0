module Stencil = Ivc_grid.Stencil
module Snapshot = Ivc_persist.Snapshot
module Codec = Ivc_persist.Codec

type verdict = Colorable of int array | Not_colorable | Unknown

let c_cp_nodes = Ivc_obs.Counter.make "exact.cp_nodes"
let c_cp_revisions = Ivc_obs.Counter.make "exact.cp_revisions"

(* ---- checkpointing ---------------------------------------------------

   [optimize] is a binary search on k whose probes are deterministic
   DFS decision solves, so its whole state is the bracket plus, while a
   probe is running, that probe's DFS path: each depth fixed one
   (variable, value) pair, and the domains below any prefix are a pure
   function of k and the prefix. Resume replays the pairs (propagation
   is deterministic, so each replayed child is entered exactly as the
   killed run entered it) and continues every value loop from the
   stored cursor. *)

type probe = { k : int; nodes : int; path : int array }

type checkpoint = {
  fp : int64;
  lo : int;
  hi : int;  (** bracket invariant: colorable with [hi] *)
  best_starts : int array;  (** witness for [hi] *)
  probe : probe option;  (** in-flight decision probe, if any *)
}

let kind = "cp-opt"

let encode_checkpoint c =
  let b = Codec.W.create () in
  Codec.W.i64 b c.fp;
  Codec.W.int b c.lo;
  Codec.W.int b c.hi;
  Codec.W.int_array b c.best_starts;
  Codec.W.option b
    (fun b p ->
      Codec.W.int b p.k;
      Codec.W.int b p.nodes;
      Codec.W.int_array b p.path)
    c.probe;
  Codec.W.contents b

let read_checkpoint r =
  let fp = Codec.R.i64 r in
  let lo = Codec.R.int r in
  let hi = Codec.R.int r in
  let best_starts = Codec.R.int_array r in
  let probe =
    Codec.R.option r (fun r ->
        let k = Codec.R.int r in
        let nodes = Codec.R.int r in
        let path = Codec.R.int_array r in
        { k; nodes; path })
  in
  { fp; lo; hi; best_starts; probe }

let decode_checkpoint ~inst snap =
  match Snapshot.decode snap ~kind read_checkpoint with
  | Error _ as e -> e
  | Ok c -> (
      if c.fp <> Snapshot.fingerprint inst then
        Error Snapshot.Instance_mismatch
      else if Array.length c.best_starts <> Stencil.n_vertices inst then
        Error (Snapshot.Bad_payload "witness length mismatch")
      else if c.lo < 0 || c.hi < c.lo then
        Error (Snapshot.Bad_payload "invalid bracket")
      else
        match c.probe with
        | None -> Ok c
        | Some p ->
            if p.k <> (c.lo + c.hi) / 2 then
              Error (Snapshot.Bad_payload "probe k does not match bracket")
            else if p.nodes < 0 || Array.length p.path land 1 = 1 then
              Error (Snapshot.Bad_payload "invalid probe")
            else if Array.exists (fun x -> x < 0) p.path then
              Error (Snapshot.Bad_payload "negative path entry")
            else Ok c)

(* ---- decision engine -------------------------------------------------

   Domains are bitsets over candidate starts [0, k - w(v)], 62 values
   to a word, held in one flat int store next to each domain's cached
   min, max and size. The disjointness constraint between two
   intervals only depends on the extremes of the other domain, so
   bounds reasoning gives exact arc consistency:
   a value [s] of [u] is supported by [v] iff
   [max dom(v) >= s + w(u)] or [min dom(v) <= s - w(v)], and the
   unsupported values are the one range
   [(max dom(v) - w(u), min dom(v) + w(v))], cleared word by word.

   The search writes the store in place. Every write pushes the cell's
   address and old value on a trail, and backtracking pops the trail
   back to the node's mark instead of keeping a copy of every domain
   per node. A cell is written only when a domain lost a value there: a
   word that lost a bit, or the size, min or max of a domain that lost
   one, and one revision or fix writes at most three counters next to
   its words. So the trail holds at most four entries per value removed
   along the current path, at most 4·n·(k+1) whatever the node budget;
   the search itself allocates nothing per node. *)

exception Empty_domain
exception Out_of_budget

(* Values per store word: 62 keeps every word non-negative. *)
let bits = 62

(* Population count of a non-negative 62-bit word (SWAR). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* Index of the lowest / highest set bit of a positive word. *)
let lowest_bit x = popcount ((x land -x) - 1)

let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  popcount (x lor (x lsr 32)) - 1

(* Bits [lo, hi] of a word, 0 <= lo <= hi < bits. *)
let range_mask lo hi = ((1 lsl (hi + 1)) - 1) land -(1 lsl lo)

(* Core engine over an abstract neighborhood function. [iter_nbr v f]
   must enumerate the neighbors of [v] among all [n_all] vertices.
   [on_node] fires at every search node with the cumulative node count
   (the node being entered included) and a thunk producing the
   flattened (variable, value) decision path; [resume_probe] is
   [(nodes, path)] from a previous run of the same deterministic
   probe. *)
let decide_gen ~budget ~time_limit_s ~cancel
    ?(on_node = fun ~nodes:_ ~path:_ -> ()) ?resume_probe ~n_all ~w_all
    ~iter_nbr ~k () =
  let past_deadline =
    match time_limit_s with
    | None -> fun () -> false
    | Some s ->
        let t0 = Ivc_obs.now_ns () in
        fun () -> Ivc_obs.elapsed_s ~since:t0 > s
  in
  (* Constrained vertices: positive weight. *)
  let ids = ref [] in
  for v = n_all - 1 downto 0 do
    if w_all.(v) > 0 then ids := v :: !ids
  done;
  let ids = Array.of_list !ids in
  let n = Array.length ids in
  let index = Array.make n_all (-1) in
  Array.iteri (fun i v -> index.(v) <- i) ids;
  let w = Array.map (fun v -> w_all.(v)) ids in
  let infeasible = Array.exists (fun wi -> wi > k) w in
  if infeasible then Not_colorable
  else if n = 0 then Colorable (Array.make n_all 0)
  else if n * (k + 1) > 50_000_000 then Unknown
  else begin
    let adj =
      Array.init n (fun i ->
          let acc = ref [] in
          iter_nbr ids.(i) (fun u ->
              if index.(u) >= 0 then acc := index.(u) :: !acc);
          Array.of_list !acc)
    in
    (* The store: min of vertex [i] at [i], max at [n + i], size at
       [2n + i], and its words from [wbase.(i)]; every domain starts
       full, so every min starts at 0. *)
    let mx = n and sz = 2 * n in
    let wbase = Array.make n 0 in
    let len = ref (3 * n) in
    for i = 0 to n - 1 do
      wbase.(i) <- !len;
      len := !len + ((k - w.(i) + bits) / bits)
    done;
    let store = Array.make !len 0 in
    for i = 0 to n - 1 do
      let top = k - w.(i) in
      store.(mx + i) <- top;
      store.(sz + i) <- top + 1;
      for v = 0 to top / bits do
        store.(wbase.(i) + v) <-
          range_mask 0 (if v = top / bits then top - (v * bits) else bits - 1)
      done
    done;
    (* The trail: (address, old value) pairs. Root propagation pushes
       entries too; nothing pops them. *)
    let trail = ref (Array.make 1024 0) and tlen = ref 0 in
    let set a x =
      if 2 * (!tlen + 1) > Array.length !trail then begin
        let t = Array.make (2 * Array.length !trail) 0 in
        Array.blit !trail 0 t 0 (2 * !tlen);
        trail := t
      end;
      !trail.(2 * !tlen) <- a;
      !trail.((2 * !tlen) + 1) <- store.(a);
      incr tlen;
      store.(a) <- x
    in
    let undo mark =
      let t = !trail in
      for j = !tlen - 1 downto mark do
        store.(t.(2 * j)) <- t.((2 * j) + 1)
      done;
      tlen := mark
    in
    let mem i s =
      store.(wbase.(i) + (s / bits)) land (1 lsl (s mod bits)) <> 0
    in
    (* Smallest value of dom(i) at or above [s] / largest at or below
       [s]; one must exist. *)
    let next_value i s =
      let b = wbase.(i) in
      let v = ref (s / bits) in
      let x = ref (store.(b + !v) land -(1 lsl (s - (!v * bits)))) in
      while !x = 0 do
        incr v;
        x := store.(b + !v)
      done;
      (!v * bits) + lowest_bit !x
    in
    let prev_value i s =
      let b = wbase.(i) in
      let v = ref (s / bits) in
      let x = ref (store.(b + !v) land range_mask 0 (s - (!v * bits))) in
      while !x = 0 do
        decr v;
        x := store.(b + !v)
      done;
      (!v * bits) + highest_bit !x
    in
    (* A saved count includes the node being entered, which the resume
       enters again. *)
    let nodes =
      ref (match resume_probe with Some (n0, _) -> n0 - 1 | None -> 0)
    in
    let revs = ref 0 in
    (* Revise dom(u) against neighbor v; true if dom(u) changed. *)
    let revise u v =
      (* Long propagation chains can dominate runtime on big domains,
         so cancellation is also polled here, not only per node. *)
      incr revs;
      if !revs land 8191 = 0 && cancel () then raise Out_of_budget;
      let lo_u = store.(u) and hi_u = store.(mx + u) in
      let lo = store.(mx + v) - w.(u) + 1 and hi = store.(v) + w.(v) - 1 in
      let lo = if lo < lo_u then lo_u else lo
      and hi = if hi > hi_u then hi_u else hi in
      if lo > hi then false
      else begin
        let b = wbase.(u) and first = lo / bits and last = hi / bits in
        let removed = ref 0 in
        for word = first to last do
          let a = b + word in
          let x = store.(a) in
          let gone =
            x
            land range_mask
                   (if word = first then lo - (first * bits) else 0)
                   (if word = last then hi - (last * bits) else bits - 1)
          in
          if gone <> 0 then begin
            set a (x lxor gone);
            removed := !removed + popcount gone
          end
        done;
        if !removed = 0 then false
        else begin
          let size = store.(sz + u) - !removed in
          if size = 0 then raise Empty_domain;
          set (sz + u) size;
          if lo = lo_u then set u (next_value u (hi + 1));
          if hi = hi_u then set (mx + u) (prev_value u (lo - 1));
          true
        end
      end
    in
    (* FIFO propagation queue: a ring over the n vertices, each in it
       at most once. *)
    let queue = Array.make n 0 and qhead = ref 0 and qlen = ref 0 in
    let inq = Bytes.make n '\000' in
    let enqueue v =
      let p = !qhead + !qlen in
      queue.(if p >= n then p - n else p) <- v;
      incr qlen;
      Bytes.set inq v '\001'
    in
    let propagate () =
      try
        while !qlen > 0 do
          let v = queue.(!qhead) in
          qhead := if !qhead + 1 = n then 0 else !qhead + 1;
          decr qlen;
          Bytes.set inq v '\000';
          let nbrs = adj.(v) in
          for j = 0 to Array.length nbrs - 1 do
            let u = nbrs.(j) in
            if revise u v && Bytes.get inq u = '\000' then enqueue u
          done
        done
      with e ->
        while !qlen > 0 do
          Bytes.set inq queue.(!qhead) '\000';
          qhead := if !qhead + 1 = n then 0 else !qhead + 1;
          decr qlen
        done;
        raise e
    in
    let solution () =
      let starts = Array.make n_all 0 in
      Array.iteri (fun i v -> starts.(v) <- store.(i)) ids;
      starts
    in
    (* Live frontier for the autosave thunk: (variable, value) per
       depth, flattened pairwise on serialization. *)
    let path_i = Array.make (n + 1) 0 and path_s = Array.make (n + 1) 0 in
    let cur_depth = ref 0 in
    let flat () =
      let d = !cur_depth in
      Array.init (2 * d) (fun j ->
          if j land 1 = 0 then path_i.(j / 2) else path_s.(j / 2))
    in
    let rpath = match resume_probe with Some (_, p) -> p | None -> [||] in
    let replay = ref (Array.length rpath / 2) in
    let corrupt () = invalid_arg "Cp: corrupt checkpoint path" in
    (* Fix dom(i) = {s} and propagate; false on a wipe-out. Either way
       the caller undoes back to its mark. *)
    let fix i s =
      let b = wbase.(i) in
      for v = 0 to (k - w.(i)) / bits do
        let x = if v = s / bits then 1 lsl (s mod bits) else 0 in
        if store.(b + v) <> x then set (b + v) x
      done;
      if store.(i) <> s then set i s;
      if store.(mx + i) <> s then set (mx + i) s;
      if store.(sz + i) <> 1 then set (sz + i) 1;
      enqueue i;
      match propagate () with () -> true | exception Empty_domain -> false
    in
    let exception Found of int array in
    let rec search depth =
      if !replay > 0 && depth >= !replay then replay := 0;
      if depth < !replay then replay_step depth
      else begin
        incr nodes;
        cur_depth := depth;
        Ivc_obs.Counter.incr c_cp_nodes;
        if !nodes > budget then raise Out_of_budget;
        if !nodes land 255 = 0 && (past_deadline () || cancel ()) then
          raise Out_of_budget;
        on_node ~nodes:!nodes ~path:flat;
        (* MRV choice: the first smallest domain with more than one value *)
        let best = ref (-1) and bestsz = ref max_int in
        for i = 0 to n - 1 do
          let size = store.(sz + i) in
          if size > 1 && size < !bestsz then begin
            best := i;
            bestsz := size
          end
        done;
        if !best < 0 then raise (Found (solution ()))
        else explore depth !best 0
      end
    (* Children in ascending value order. Each child is undone before
       the next value is read, so the loop walks this node's dom(i). *)
    and explore depth i from_s =
      let s = ref from_s in
      while !s <= store.(mx + i) do
        let v = next_value i !s in
        let mark = !tlen in
        if fix i v then begin
          path_i.(depth) <- i;
          path_s.(depth) <- v;
          search (depth + 1)
        end;
        undo mark;
        s := v + 1
      done
    (* Replay of one frontier step: no node accounting (the restored
       count already includes it) and no re-derivation of the MRV
       choice — the stored pair is re-applied verbatim; propagation is
       deterministic, so the child is the one the killed run entered.
       Afterwards the value loop continues past the stored cursor. *)
    and replay_step depth =
      let i = rpath.(2 * depth) and s = rpath.((2 * depth) + 1) in
      if i >= n then corrupt ();
      if s > k - w.(i) || not (mem i s) then corrupt ();
      let mark = !tlen in
      if not (fix i s) then corrupt ();
      path_i.(depth) <- i;
      path_s.(depth) <- s;
      search (depth + 1);
      undo mark;
      explore depth i (s + 1)
    in
    Fun.protect ~finally:(fun () -> Ivc_obs.Counter.add c_cp_revisions !revs)
    @@ fun () ->
    try
      for v = 0 to n - 1 do
        enqueue v
      done;
      (match propagate () with
      | () -> search 0
      | exception Empty_domain -> ());
      Not_colorable
    with
    | Found starts -> Colorable starts
    | Out_of_budget -> Unknown
  end

let decide ?(budget = 10_000_000) ?time_limit_s ?(cancel = fun () -> false)
    inst ~k =
  decide_gen ~budget ~time_limit_s ~cancel
    ~n_all:(Stencil.n_vertices inst)
    ~w_all:(inst : Stencil.t).w
    ~iter_nbr:(fun v f -> Stencil.iter_neighbors inst v f)
    ~k ()

let decide_graph ?(budget = 10_000_000) ?time_limit_s
    ?(cancel = fun () -> false) g ~w ~k =
  decide_gen ~budget ~time_limit_s ~cancel
    ~n_all:(Ivc_graph.Csr.n_vertices g)
    ~w_all:w
    ~iter_nbr:(fun v f -> Ivc_graph.Csr.iter_neighbors g v f)
    ~k ()

let optimize_graph ?(budget = 10_000_000) g ~w =
  let ub = Array.fold_left ( + ) 0 w in
  let lb =
    let m = ref (Array.fold_left max 0 w) in
    Ivc_graph.Csr.iter_edges g (fun u v ->
        if w.(u) + w.(v) > !m then m := w.(u) + w.(v));
    !m
  in
  let rec go lo hi best_starts =
    if lo >= hi then Some (hi, best_starts)
    else
      let mid = (lo + hi) / 2 in
      match decide_graph ~budget g ~w ~k:mid with
      | Colorable s -> go lo mid s
      | Not_colorable -> go (mid + 1) hi best_starts
      | Unknown -> None
  in
  (* color everything sequentially as the trivially feasible witness *)
  let trivial =
    let acc = ref 0 in
    Array.map
      (fun wi ->
        let s = !acc in
        acc := !acc + wi;
        s)
      w
  in
  go lb ub trivial

let optimize ?(budget = 10_000_000) ?time_limit_s ?(cancel = fun () -> false)
    ?autosave ?resume ?warm inst =
  let t0 = Ivc_obs.now_ns () in
  let remaining () =
    match time_limit_s with
    | None -> None
    | Some s -> Some (Float.max 0.01 (s -. Ivc_obs.elapsed_s ~since:t0))
  in
  let fp = lazy (Snapshot.fingerprint inst) in
  let payload ~lo ~hi ~starts probe =
    encode_checkpoint
      { fp = Lazy.force fp; lo; hi; best_starts = starts; probe }
  in
  let save_bracket a ~lo ~hi ~starts =
    Ivc_persist.Autosave.tick a ~kind (fun () -> payload ~lo ~hi ~starts None)
  in
  (* The pending probe from a resumed snapshot; consumed by the first
     binary-search step (whose [mid] is the same deterministic value,
     validated at decode time). *)
  let pending = ref (match resume with Some c -> c.probe | None -> None) in
  (* Binary search on the monotone predicate "colorable with k". *)
  let rec go lo hi best_starts =
    (* invariant: colorable with hi (witness best_starts); the smallest
       feasible k lies in [lo, hi] *)
    if lo >= hi then Some (hi, best_starts)
    else if cancel () then None
    else begin
      let mid = (lo + hi) / 2 in
      let resume_probe =
        match !pending with
        | Some p when p.k = mid ->
            pending := None;
            Some (p.nodes, p.path)
        | _ ->
            pending := None;
            None
      in
      (* One payload thunk per probe: a node only stores its count and
         path thunk, and the probe is built when a snapshot is due. *)
      let on_node =
        Option.map
          (fun a ->
            let at = ref 0 and path = ref (fun () -> [||]) in
            let probe () =
              payload ~lo ~hi ~starts:best_starts
                (Some { k = mid; nodes = !at; path = !path () })
            in
            fun ~nodes ~path:p ->
              at := nodes;
              path := p;
              Ivc_persist.Autosave.tick a ~kind probe)
          autosave
      in
      let verdict =
        decide_gen ~budget ~time_limit_s:(remaining ()) ~cancel ?on_node
          ?resume_probe
          ~n_all:(Stencil.n_vertices inst)
          ~w_all:(inst : Stencil.t).w
          ~iter_nbr:(fun v f -> Stencil.iter_neighbors inst v f)
          ~k:mid ()
      in
      match verdict with
      | Colorable s ->
          Option.iter (fun a -> save_bracket a ~lo ~hi:mid ~starts:s) autosave;
          go lo mid s
      | Not_colorable ->
          Option.iter
            (fun a -> save_bracket a ~lo:(mid + 1) ~hi ~starts:best_starts)
            autosave;
          go (mid + 1) hi best_starts
      | Unknown -> None
    end
  in
  match resume with
  | Some c ->
      (* The snapshot's bracket subsumes the heuristic warm start the
         killed run already performed; recomputing it could not
         tighten anything and would desynchronize the pending probe. *)
      go c.lo c.hi (Array.copy c.best_starts)
  | None ->
      let ub, ub_starts =
        match warm with Some w -> w | None -> Ivc.Algo.best inst
      in
      let lb = Ivc.Bounds.combined inst in
      if ub <= lb then Some (ub, ub_starts) else go lb ub ub_starts
