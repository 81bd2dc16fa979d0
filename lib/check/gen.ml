module S = Ivc_grid.Stencil
module F = Ivc_resilient.Faults

let mix64 = Ivc_persist.Snapshot.mix64

(* Counter-mode splitmix64: the key identifies the (seed, stream)
   pair, the counter advances per draw. No hidden global state, so
   streams are independent and replay exactly. *)
type rng = { key : int64; mutable n : int }

let rng ~seed ~stream =
  {
    key =
      mix64
        (Int64.logxor (F.key_of_seed seed)
           (Int64.mul 0x94d049bb133111ebL (Int64.of_int (stream + 1))));
    n = 0;
  }

let bits r =
  r.n <- r.n + 1;
  F.mix_int ~key:r.key r.n

let int r bound =
  if bound < 1 then invalid_arg "Ivc_check.Gen.int: bound < 1";
  bits r mod bound

let permutation r n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let hash inst =
  let mix acc v =
    Int64.to_int
      (Int64.shift_right_logical
         (mix64 (Int64.logxor (Int64.of_int acc) (mix64 (Int64.of_int v))))
         2)
  in
  let acc =
    match (inst : S.t).dims with
    | S.D2 (x, y) -> mix (mix 2 x) y
    | S.D3 (x, y, z) -> mix (mix (mix 3 x) y) z
  in
  Array.fold_left mix acc (inst : S.t).w

type family =
  | Uniform2
  | Uniform3
  | Equal
  | Chain
  | Clique2
  | Clique3
  | Ring
  | Stripes
  | Heavy_tail
  | Zero_heavy

let families =
  [
    Uniform2; Uniform3; Equal; Chain; Clique2; Clique3; Ring; Stripes;
    Heavy_tail; Zero_heavy;
  ]

let family_name = function
  | Uniform2 -> "uniform2"
  | Uniform3 -> "uniform3"
  | Equal -> "equal"
  | Chain -> "chain"
  | Clique2 -> "clique2"
  | Clique3 -> "clique3"
  | Ring -> "ring"
  | Stripes -> "stripes"
  | Heavy_tail -> "heavy-tail"
  | Zero_heavy -> "zero-heavy"

(* Stream tags keep each family's draws independent of the others for
   the same seed. *)
let stream_of_family = function
  | Uniform2 -> 0
  | Uniform3 -> 1
  | Equal -> 2
  | Chain -> 3
  | Clique2 -> 4
  | Clique3 -> 5
  | Ring -> 6
  | Stripes -> 7
  | Heavy_tail -> 8
  | Zero_heavy -> 9

let weights r n bound = Array.init n (fun _ -> int r (bound + 1))

let build f r =
  match f with
  | Uniform2 ->
      (* ragged on purpose: 1xN / Nx1 ribbons exercise the boundary and
         radix-fallback paths *)
      let x = 1 + int r 10 and y = 1 + int r 10 in
      let bound = 1 + int r 24 in
      S.make2 ~x ~y (weights r (x * y) bound)
  | Uniform3 ->
      let x = 1 + int r 5 and y = 1 + int r 5 and z = 1 + int r 4 in
      let bound = 1 + int r 11 in
      S.make3 ~x ~y ~z (weights r (x * y * z) bound)
  | Equal ->
      let c = 1 + int r 9 in
      if int r 2 = 0 then
        let x = 2 + int r 6 and y = 2 + int r 6 in
        S.init2 ~x ~y (fun _ _ -> c)
      else
        let x = 2 + int r 3 and y = 2 + int r 3 and z = 2 + int r 2 in
        S.init3 ~x ~y ~z (fun _ _ _ -> c)
  | Chain ->
      let n = 2 + int r 23 in
      S.make2 ~x:1 ~y:n (weights r n 20)
  | Clique2 -> S.make2 ~x:2 ~y:2 (Array.init 4 (fun _ -> 1 + int r 30))
  | Clique3 -> S.make3 ~x:2 ~y:2 ~z:2 (Array.init 8 (fun _ -> 1 + int r 30))
  | Ring ->
      S.init2 ~x:3 ~y:3 (fun i j ->
          if i = 1 && j = 1 then 0 else 1 + int r 15)
  | Stripes ->
      (* positive weight only on even rows: conflicts survive only
         inside a row, so the positive cells form disjoint paths — a
         bipartite conflict graph with a known exact optimum *)
      let x = 2 + int r 7 and y = 2 + int r 7 in
      S.init2 ~x ~y (fun i _ -> if i mod 2 = 1 then 0 else 1 + int r 12)
  | Heavy_tail ->
      let x = 2 + int r 7 and y = 2 + int r 7 in
      S.init2 ~x ~y (fun _ _ ->
          if int r 8 = 0 then 50 + int r 150 else int r 5)
  | Zero_heavy ->
      let x = 2 + int r 3 and y = 2 + int r 3 and z = 2 + int r 3 in
      S.init3 ~x ~y ~z (fun _ _ _ ->
          if int r 10 < 7 then 0 else 1 + int r 8)

let of_family f ~seed = build f (rng ~seed ~stream:(stream_of_family f))

let n_families = List.length families
let family_of_index ~index = List.nth families (index mod n_families)

let instance ~seed ~index =
  (* one fresh stream per stream element: draws for instance i never
     shift instance i+1 *)
  build (family_of_index ~index) (rng ~seed ~stream:(100 + index))

(* ---- delta streams ---------------------------------------------------

   A delta stream is valid by construction against the instance it was
   drawn for: generation tracks the evolving weights (and dimensions,
   across Extends) so every bump stays in range and never drives a
   weight negative. Like everything else here it is a pure function of
   (seed, instance shape), so the incremental oracle can derive its
   stream from the instance hash and a repro replays with no extra
   state. *)

module Delta = Ivc_incremental.Delta

let delta_extend_max_n = 512

let delta_stream ?length ~seed inst =
  let r = rng ~seed ~stream:19 in
  (* evolving mirror of the instance the deltas apply to *)
  let w = ref (Array.copy (inst : S.t).w) in
  let slice = Delta.slice_size inst in
  let count = match length with Some l -> max 0 l | None -> 3 + int r 5 in
  let bump_at v =
    let cur = !w.(v) in
    (* negative drift one time in three, never below zero *)
    if cur > 0 && int r 3 = 0 then -(1 + int r cur) else 1 + int r 6
  in
  let ops = ref [] in
  for _ = 1 to count do
    let n = Array.length !w in
    let kind = int r 8 in
    let d =
      if kind = 7 && n <= delta_extend_max_n then begin
        let slabs = 1 + int r 2 in
        Delta.Extend
          { slabs; w = Array.init (slabs * slice) (fun _ -> int r 9) }
      end
      else if kind >= 4 then begin
        let k = 1 + int r 6 in
        Delta.Batch
          (Array.init k (fun _ ->
               let v = int r n in
               let dw = bump_at v in
               !w.(v) <- !w.(v) + dw;
               (v, dw)))
      end
      else begin
        let v = int r n in
        let dw = bump_at v in
        Delta.Bump { v; dw }
      end
    in
    (match d with
    | Delta.Bump { v; dw } -> !w.(v) <- !w.(v) + dw
    | Delta.Batch _ -> () (* already applied while drawing *)
    | Delta.Extend { slabs = _; w = ext } -> w := Array.append !w ext);
    ops := d :: !ops
  done;
  List.rev !ops

let small2 ~seed =
  let r = rng ~seed ~stream:50 in
  let x = 2 + int r 5 and y = 2 + int r 5 in
  S.make2 ~x ~y (weights r (x * y) 15)

let small3 ~seed =
  let r = rng ~seed ~stream:51 in
  let x = 2 + int r 3 and y = 2 + int r 3 and z = 2 + int r 2 in
  S.make3 ~x ~y ~z (weights r (x * y * z) 9)
