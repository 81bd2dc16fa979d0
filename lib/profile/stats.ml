let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. Float.of_int (Array.length a)

let geometric_mean a =
  if Array.length a = 0 then 0.0
  else begin
    let s = Array.fold_left (fun acc x -> acc +. log (max x 1e-300)) 0.0 a in
    exp (s /. Float.of_int (Array.length a))
  end

let median a =
  if Array.length a = 0 then 0.0
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    let n = Array.length b in
    if n land 1 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0
  end

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    b.(min (n - 1) (int_of_float (p *. Float.of_int n)))
  end

let min_max a =
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (infinity, neg_infinity) a

let avg_ratio values refs =
  if Array.length values <> Array.length refs then
    invalid_arg "Stats.avg_ratio: length mismatch";
  let acc = ref 0.0 and k = ref 0 in
  Array.iteri
    (fun i v ->
      if refs.(i) > 0 then begin
        acc := !acc +. (Float.of_int v /. Float.of_int refs.(i));
        incr k
      end)
    values;
  if !k = 0 then 0.0 else !acc /. Float.of_int !k

let pct_equal values refs =
  if Array.length values <> Array.length refs then
    invalid_arg "Stats.pct_equal: length mismatch";
  if Array.length values = 0 then 0.0
  else begin
    let eq = ref 0 in
    Array.iteri (fun i v -> if v = refs.(i) then incr eq) values;
    100.0 *. Float.of_int !eq /. Float.of_int (Array.length values)
  end

let pct_improvement a b =
  let ma = mean a and mb = mean b in
  if ma = 0.0 then 0.0 else (mb -. ma) /. ma *. 100.0

let pearson xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Stats.pearson";
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx <= 0.0 || !syy <= 0.0 then 0.0
    else !sxy /. sqrt (!sxx *. !syy)
  end
