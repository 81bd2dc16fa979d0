(* Pure weight sources for out-of-core solves.

   An out-of-core solve must never hold the full weight array: a
   source is just the grid dimensions plus a pure [id -> weight]
   function and a stable fingerprint. Wrapping a materialized stencil
   gives the in-core-compatible source (same fingerprint as
   [Ivc_persist.Snapshot.fingerprint], so spills interoperate with the
   rest of the persistence layer); [seeded2]/[seeded3] generate
   counter-mode splitmix64 weights from (seed, id) — O(1) memory at
   any grid size, which is the whole point. *)

module Stencil = Ivc_grid.Stencil

type t = {
  dims : Stencil.dims;
  weight : int -> int;
  fingerprint : int64;
}

let dims s = s.dims

let n_vertices s =
  match s.dims with
  | Stencil.D2 (x, y) -> x * y
  | Stencil.D3 (x, y, z) -> x * y * z

let fingerprint s = s.fingerprint
let weight s id = s.weight id

let of_stencil inst =
  {
    dims = (inst : Stencil.t).dims;
    weight = (fun id -> (inst : Stencil.t).w.(id));
    fingerprint = Ivc_persist.Snapshot.fingerprint inst;
  }

(* The persist fingerprint's splitmix64 finalizer, applied in counter
   mode: weight of cell [id] is a pure function of (seed, id). *)
let mix64 = Ivc_persist.Snapshot.mix64

let seeded_weight ~seed ~bound id =
  let h =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.of_int id))
  in
  Int64.to_int (Int64.unsigned_rem h (Int64.of_int bound))

let seeded_fingerprint tag ds ~seed ~bound =
  let feed acc v = mix64 (Int64.add acc (Int64.of_int v)) in
  List.fold_left feed (Int64.of_int tag) (ds @ [ seed; bound ])

let check_pos name v = if v < 1 then invalid_arg ("Ooc.Source: " ^ name)

let seeded2 ~x ~y ~seed ~bound =
  check_pos "x must be positive" x;
  check_pos "y must be positive" y;
  check_pos "bound must be positive" bound;
  {
    dims = Stencil.D2 (x, y);
    weight = seeded_weight ~seed ~bound;
    fingerprint = seeded_fingerprint 0x52 [ x; y ] ~seed ~bound;
  }

let seeded3 ~x ~y ~z ~seed ~bound =
  check_pos "x must be positive" x;
  check_pos "y must be positive" y;
  check_pos "z must be positive" z;
  check_pos "bound must be positive" bound;
  {
    dims = Stencil.D3 (x, y, z);
    weight = seeded_weight ~seed ~bound;
    fingerprint = seeded_fingerprint 0x53 [ x; y; z ] ~seed ~bound;
  }

let materialize s =
  match s.dims with
  | Stencil.D2 (x, y) -> Stencil.init2 ~x ~y (fun i j -> s.weight ((i * y) + j))
  | Stencil.D3 (x, y, z) ->
      Stencil.init3 ~x ~y ~z (fun i j k -> s.weight ((((i * y) + j) * z) + k))
