(* Statistics the benchmark reports: percentiles under the ten-beyond
   rule, failure-aware latency samples, and metric-name checks. *)

(* A failed or refused operation is a latency sample beyond any limit. *)
let failed = infinity

type pct = {
  value : float;  (** the sample at [level]; [infinity] if it is a failure *)
  level : float;  (** the percentile actually reported, in (0, 1] *)
  n : int;  (** samples the percentile was taken over *)
}

let beyond = 10

(* [percentile samples q] is the nearest-rank [q]-quantile, lowered to
   the highest level that still leaves [beyond] samples above it. With
   [beyond] samples or fewer no level qualifies, and the requested
   quantile is reported; [n] says how little it rests on. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let want = max 0 (int_of_float (Float.ceil (q *. Float.of_int n)) - 1) in
  let k = if n <= beyond then want else min want (n - 1 - beyond) in
  let level = Float.of_int (k + 1) /. Float.of_int n in
  { value = a.(k); level; n }

let median samples = (percentile samples 0.5).value

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. Float.of_int n

let sum samples = Array.fold_left ( +. ) 0.0 samples

(* Percentile of a sample set that may hold failures, reported as a
   finite number: a failure-valued percentile reads as [ceiling]. *)
let finite ~ceiling p = if Float.is_finite p.value then p.value else ceiling

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Metric names and units accepted by the result format. *)
let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let first_ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  String.length s > 0
  && String.length s <= 64
  && first_ok s.[0]
  && String.for_all ok s

let valid_unit s =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || String.contains "_/%.-" c
  in
  String.length s > 0 && String.length s <= 16 && String.for_all ok s

(* Growable float sample buffer, owned by one sender at a time. *)
module Samples = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 256 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0.0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.a 0 t.len
end
