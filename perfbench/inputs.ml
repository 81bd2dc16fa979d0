(* Seeded workload inputs. Everything a run feeds the program is built
   here, before its timed window, from the workload seed alone. *)

module S = Ivc_grid.Stencil
module Cat = Spatial_data.Catalog
module Delta = Ivc_incremental.Delta
module Source = Ivc_ooc.Source

(* One independent random stream per (seed, purpose). *)
let rng ~seed ~stream = Random.State.make [| 0x5eed; seed; stream |]

let permutation st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* ---- catalog ---------------------------------------------------------- *)

(* The `bench json` slice: the 2D and 3D catalog at scale 0.05, one
   entry in eight. *)
let slice_entries () =
  let subsample = 8 and scale = 0.05 in
  Array.of_list (Cat.entries_2d ~scale ~subsample () @ Cat.entries_3d ~scale ~subsample ())

let slice () = Array.map (fun (e : Cat.entry) -> e.Cat.inst) (slice_entries ())

(* ---- digests ---------------------------------------------------------- *)

let digest_add_inst buf inst =
  Buffer.add_string buf
    (Printf.sprintf "%Lx;" (Ivc_persist.Snapshot.fingerprint inst))

let digest_add_delta buf = function
  | Delta.Bump { v; dw } -> Buffer.add_string buf (Printf.sprintf "b%d,%d;" v dw)
  | Delta.Batch ops ->
      Buffer.add_char buf 'B';
      Array.iter
        (fun (v, dw) -> Buffer.add_string buf (Printf.sprintf "%d,%d," v dw))
        ops;
      Buffer.add_char buf ';'
  | Delta.Extend { slabs; w } ->
      Buffer.add_string buf (Printf.sprintf "e%d:" slabs);
      Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%d," x)) w

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- serve ------------------------------------------------------------ *)

(* [inst]'s grid with the weights [w]. *)
let with_weights (inst : S.t) w =
  match inst.S.dims with
  | S.D2 (x, y) -> S.make2 ~x ~y w
  | S.D3 (x, y, z) -> S.make3 ~x ~y ~z w

(* A copy of [inst] with one seeded cell moved by 1..3 (never below
   zero): a new fingerprint with the catalog entry's size and weight
   structure, so its solve costs what the entry's solve costs. *)
let perturb st (inst : S.t) =
  let w = Array.copy inst.S.w in
  let v = Random.State.int st (Array.length w) in
  let dw = 1 + Random.State.int st 3 in
  w.(v) <- (if w.(v) >= dw && Random.State.bool st then w.(v) - dw else w.(v) + dw);
  with_weights inst w

type target = Hot of int | Miss of int

type request = { due_s : float; target : target }

type serve = {
  hot : S.t array;  (** solved once in set-up, then served from cache *)
  misses : S.t array;  (** never-seen perturbations, one per miss *)
  schedule : request array;  (** Poisson arrivals, due times from 0 *)
}

(* Zipf(1) over [k] ranks, as a cumulative table. *)
let zipf_cdf k =
  let w = Array.init k (fun r -> 1.0 /. Float.of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf st =
  let u = Random.State.float st 1.0 in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then find lo mid else find (mid + 1) hi
  in
  find 0 (Array.length cdf - 1)

(* [k] indices spread evenly over [0, n), cycling when [k > n]. *)
let spread ~n k = Array.init k (fun i -> i * n / k mod n)

(* Entries the serve workload draws from: all but the high-weight 3D
   Pollen and PollenUS entries and those over 2048 cells. At the serving
   budget those take 0.05-2.6 s each (the rest at most 0.03 s); with them
   in the mix one solve backed up a hundred requests behind it, and the
   median latency of two runs of one seed read 1.1 and 15.2 ms. The
   catalog workload keeps them. *)
let serve_pool (entries : Cat.entry array) =
  let heavy (e : Cat.entry) =
    (S.is_3d e.Cat.inst && (e.Cat.dataset = "Pollen" || e.Cat.dataset = "PollenUS"))
    || S.n_vertices e.Cat.inst > 2048
  in
  Array.of_list
    (List.filter (fun i -> not (heavy entries.(i))) (List.init (Array.length entries) Fun.id))

(* The hot set and its popularity ranks are fixed (spread evenly over
   the pool, ranked by a constant shuffle), and so is the set of
   entries the misses perturb (spread evenly over the pool, one miss
   each), so every seed asks for the same mix of sizes and solve
   costs. The seed drives which requests miss, the Zipf draws, the
   perturbed cells and the arrival times: [count] arrivals of a
   Poisson process conditioned on landing in [0, count / rate), i.e.
   sorted uniform times, so every run offers the same load over the
   same window. *)
let serve_inputs ~seed ~entries ~rate ~count ~miss_frac ~hot_size =
  let pool = Array.map (fun i -> entries.(i).Cat.inst) (serve_pool entries) in
  let n = Array.length pool in
  let ranks = permutation (rng ~seed:0 ~stream:2) hot_size in
  let hot_spread = spread ~n hot_size in
  let hot = Array.map (fun r -> pool.(hot_spread.(r))) ranks in
  let n_miss = int_of_float (Float.round (miss_frac *. Float.of_int count)) in
  let is_miss =
    let p = permutation (rng ~seed ~stream:3) count in
    Array.map (fun i -> i < n_miss) p
  in
  let bases = spread ~n n_miss in
  let order = permutation (rng ~seed ~stream:4) n_miss in
  let st_pert = rng ~seed ~stream:5 in
  let misses = Array.map (fun k -> perturb st_pert pool.(bases.(k))) order in
  let st_time = rng ~seed ~stream:6 and st_zipf = rng ~seed ~stream:7 in
  let window = Float.of_int count /. rate in
  let due = Array.init count (fun _ -> Random.State.float st_time window) in
  Array.sort Float.compare due;
  let cdf = zipf_cdf hot_size in
  let m = ref 0 in
  let schedule =
    Array.init count (fun i ->
        let target =
          if is_miss.(i) then begin
            let k = !m in
            incr m;
            Miss k
          end
          else Hot (zipf_draw cdf st_zipf)
        in
        { due_s = due.(i); target })
  in
  { hot; misses; schedule }

let serve_digest s =
  let buf = Buffer.create 4096 in
  Array.iter (digest_add_inst buf) s.hot;
  Array.iter (digest_add_inst buf) s.misses;
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (match r.target with
        | Hot i -> Printf.sprintf "%.9f:h%d;" r.due_s i
        | Miss i -> Printf.sprintf "%.9f:m%d;" r.due_s i))
    s.schedule;
  digest buf

(* ---- stream ---------------------------------------------------------- *)

(* The stream chains are STKDE window slides over the PollenUS cloud
   (scale 1, 27 244 points), the paper's densest dataset: a window a
   quarter of the time span wide slides along the time axis, and each
   step's delta is the change of the per-cell point counts, the batch
   [Stkde.Stream.step] would send. The 2D grid is the 256x256 XY
   histogram of the window's points; the 3D grid is the 32x32x32 STKDE
   box grid ([Stkde.App.box_id]). Measured on these grids, a step of
   0.05-0.15% of the span changes a median 54 (2D) / 46 (3D) cells, by
   |dw| = 1 in nine of ten, and never forces the full-sweep fallback;
   a jump of 20% of the span changes about 5000 / 3400 cells and fell
   back in 20 of 20 trials on each grid. *)
let window_frac = 0.25

let hop_lo = 0.0005
let hop_hi = 0.0015
let jump_frac = 0.2

(* One step in every [jump_every] is a jump, at a seeded position in
   its block: 2.5% of the deltas, so the top 1% of round trips lies
   inside the fallback population on every seed instead of at its
   edge. *)
let jump_every = 40

(* Both grids start from the window at [start_frac] of the span, so
   every seed solves the same two grids; the seed drives the hops and
   where the jumps fall. *)
let start_frac = 0.3

type cells = {
  cloud_ts : float array;  (** point times, ascending *)
  cell : int array;  (** the grid cell of each point, same order *)
  make : int array -> S.t;  (** the grid of per-cell counts *)
  n : int;
}

let stream_cloud () = Spatial_data.Datasets.pollen_us ()

let stream_cells (cloud : Spatial_data.Points.cloud) dim =
  let module P = Spatial_data.Points in
  let pts = Array.copy cloud.P.points in
  Array.stable_sort (fun a b -> Float.compare a.P.t b.P.t) pts;
  let cell, make, n =
    match dim with
    | `D2 ->
        let side = 256 in
        let fx = Float.of_int side /. (cloud.P.x1 -. cloud.P.x0)
        and fy = Float.of_int side /. (cloud.P.y1 -. cloud.P.y0) in
        let clip v = max 0 (min (side - 1) v) in
        ( (fun (p : P.point) ->
            (clip (int_of_float ((p.P.x -. cloud.P.x0) *. fx)) * side)
            + clip (int_of_float ((p.P.y -. cloud.P.y0) *. fy))),
          (fun w -> S.make2 ~x:side ~y:side w),
          side * side )
    | `D3 ->
        (* box sizes as the stkde command picks them, at 32 boxes a side *)
        let b = 32 in
        let hs =
          Float.min
            ((cloud.P.x1 -. cloud.P.x0) /. (2.5 *. Float.of_int b))
            ((cloud.P.y1 -. cloud.P.y0) /. (2.5 *. Float.of_int b))
        and ht = (cloud.P.t1 -. cloud.P.t0) /. (2.5 *. Float.of_int b) in
        let cfg = Stkde.App.make ~cloud ~voxels:(64, 64, 64) ~boxes:(b, b, b) ~hs ~ht in
        (Stkde.App.box_id cfg, (fun w -> S.make3 ~x:b ~y:b ~z:b w), b * b * b)
  in
  { cloud_ts = Array.map (fun p -> p.P.t) pts; cell = Array.map cell pts; make; n }

(* First index whose time is at least [t]. *)
let lower_bound ts t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ts.(mid) < t then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ts)

(* A seeded chain of [len] window slides: returns the grid of the
   start window and the deltas. The window position moves by seeded
   hops and bounces off both ends of the span. *)
let stkde_chain ~seed ~stream (cloud : Spatial_data.Points.cloud) c ~len =
  let module P = Spatial_data.Points in
  let st = rng ~seed ~stream in
  let t0 = cloud.P.t0 and span = cloud.P.t1 -. cloud.P.t0 in
  let range a =
    ( lower_bound c.cloud_ts (t0 +. (a *. span)),
      lower_bound c.cloud_ts (t0 +. ((a +. window_frac) *. span)) )
  in
  let lo, hi = range start_frac in
  let counts = Array.make c.n 0 in
  for i = lo to hi - 1 do
    counts.(c.cell.(i)) <- counts.(c.cell.(i)) + 1
  done;
  let inst = c.make counts in
  let acc = Array.make c.n 0 in
  let touched = ref [] in
  let add i dw =
    let v = c.cell.(i) in
    if acc.(v) = 0 then touched := v :: !touched;
    acc.(v) <- acc.(v) + dw
  in
  (* points in [a0, a1) but not in [b0, b1) *)
  let minus (a0, a1) (b0, b1) dw =
    for i = a0 to min a1 b0 - 1 do add i dw done;
    for i = max a0 b1 to a1 - 1 do add i dw done
  in
  let pos = ref start_frac and dir = ref 1.0 and cur = ref (lo, hi) in
  let top = 1.0 -. window_frac in
  let jump_at = ref 0 and block = ref (-1) in
  let deltas = ref [] and made = ref 0 in
  while !made < len do
    if !made / jump_every <> !block then begin
      block := !made / jump_every;
      jump_at := !made + Random.State.int st jump_every
    end;
    let hop =
      if !made = !jump_at then jump_frac
      else hop_lo +. Random.State.float st (hop_hi -. hop_lo)
    in
    let p = !pos +. (!dir *. hop) in
    let p = if p > top then (dir := -1.0; (2.0 *. top) -. p) else p in
    let p = if p < 0.0 then (dir := 1.0; -.p) else p in
    pos := p;
    let next = range p in
    minus !cur next (-1);
    minus next !cur 1;
    cur := next;
    let ops =
      List.filter_map
        (fun v ->
          let dw = acc.(v) in
          acc.(v) <- 0;
          if dw = 0 then None else Some (v, dw))
        (List.sort_uniq compare !touched)
    in
    touched := [];
    (* a slide that moves no point changes nothing and is not sent *)
    match ops with
    | [] -> ()
    | [ (v, dw) ] ->
        deltas := Delta.Bump { v; dw } :: !deltas;
        incr made
    | ops ->
        deltas := Delta.Batch (Array.of_list ops) :: !deltas;
        incr made
  done;
  (inst, Array.of_list (List.rev !deltas))

let chain_digest insts chains =
  let buf = Buffer.create 4096 in
  Array.iter (digest_add_inst buf) insts;
  Array.iter (Array.iter (digest_add_delta buf)) chains;
  digest buf

(* ---- grids ------------------------------------------------------------ *)

let grid2_source ~seed = Source.seeded2 ~x:2048 ~y:2048 ~seed:(seed * 3) ~bound:50

let grid3_source ~seed =
  Source.seeded3 ~x:96 ~y:96 ~z:96 ~seed:((seed * 3) + 1) ~bound:20

let grids_digest sources =
  let buf = Buffer.create 64 in
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "%Lx;" (Source.fingerprint s)))
    sources;
  digest buf
