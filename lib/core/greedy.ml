module Stencil = Ivc_grid.Stencil
module Csr = Ivc_graph.Csr
module Ff = Ivc_kernel.Ff

(* Scan sorted (start, finish) pairs for the first gap of width [len].
   Zero-length vertices can always be placed at 0. Shared by the
   reference engine, its list-based [first_fit] and the graph version. *)
let scan_gap pairs count len =
  if len = 0 then 0
  else begin
    let cur = ref 0 in
    let placed = ref (-1) in
    let i = ref 0 in
    while !placed < 0 && !i < count do
      let s, f = pairs.(!i) in
      if !cur + len <= s then placed := !cur
      else begin
        if f > !cur then cur := f;
        incr i
      end
    done;
    if !placed >= 0 then !placed else !cur
  end

(* Sort only the filled prefix of a (start, finish) scratch buffer, in
   place: insertion sort, no [Array.sub] copy and no comparator
   closure. Stencil-bounded prefixes are at most 8 / 26 long. *)
let sort_prefix pairs count =
  for i = 1 to count - 1 do
    let ((s, _) as p) = pairs.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && fst pairs.(!j) > s do
      pairs.(!j + 1) <- pairs.(!j);
      decr j
    done;
    pairs.(!j + 1) <- p
  done

(* The pre-kernel engine, kept as the differential-testing oracle for
   [Ivc_kernel] (see test/test_kernel.ml): one boxed tuple per colored
   neighbor, [Stencil.iter_neighbors] closures, the shared scan. *)
module Reference = struct
  type state = {
    inst : Stencil.t;
    starts : int array;
    mutable uncolored_count : int;
    (* scratch buffer of (start, finish) pairs, grown on demand *)
    mutable buf : (int * int) array;
  }

  let create inst =
    let n = Stencil.n_vertices inst in
    {
      inst;
      starts = Array.make n Coloring.uncolored;
      uncolored_count = n;
      buf = Array.make (max 1 (min n 64)) (0, 0);
    }

  let ensure_buf st k =
    if Array.length st.buf < k then
      st.buf <- Array.make (max k (2 * Array.length st.buf)) (0, 0)

  let color_vertex st v =
    if st.starts.(v) >= 0 then st.starts.(v)
    else begin
      let w = (st.inst : Stencil.t).w in
      let len = w.(v) in
      let count = ref 0 in
      ensure_buf st (Stencil.stencil_degree st.inst);
      Stencil.iter_neighbors st.inst v (fun u ->
          if st.starts.(u) >= 0 && w.(u) > 0 then begin
            st.buf.(!count) <- (st.starts.(u), st.starts.(u) + w.(u));
            incr count
          end);
      sort_prefix st.buf !count;
      let s = scan_gap st.buf !count len in
      st.starts.(v) <- s;
      st.uncolored_count <- st.uncolored_count - 1;
      s
    end

  let uncolor st v =
    if st.starts.(v) >= 0 then begin
      st.starts.(v) <- Coloring.uncolored;
      st.uncolored_count <- st.uncolored_count + 1
    end

  let starts st = Array.copy st.starts

  let color_in_order inst order =
    let n = Stencil.n_vertices inst in
    if Array.length order <> n then
      invalid_arg "Greedy.Reference.color_in_order: order length mismatch";
    let st = create inst in
    Array.iter (fun v -> ignore (color_vertex st v)) order;
    if st.uncolored_count <> 0 then
      invalid_arg "Greedy.Reference.color_in_order: order is not a permutation";
    st.starts

  let first_fit ~len intervals =
    if len < 0 then invalid_arg "Greedy.Reference.first_fit: negative length";
    let pairs =
      intervals
      |> List.filter (fun iv -> not (Interval.is_empty iv))
      |> List.map (fun (iv : Interval.t) -> (iv.start, Interval.finish iv))
      |> Array.of_list
    in
    sort_prefix pairs (Array.length pairs);
    scan_gap pairs (Array.length pairs) len
end

(* ---- kernel-backed production engine ---------------------------------- *)

type state = Ff.t

let create inst = Ff.create inst
let instance = Ff.instance
let start = Ff.start
let is_colored = Ff.is_colored
let color_vertex = Ff.color_vertex
let uncolor = Ff.uncolor
let recolor = Ff.recolor
let remaining = Ff.remaining
let maxcolor = Ff.maxcolor
let starts = Ff.starts

let color_in_order inst order =
  let n = Stencil.n_vertices inst in
  if Array.length order <> n then
    invalid_arg "Greedy.color_in_order: order length mismatch";
  Ivc_obs.Span.record ~cat:"core"
    ~args:[ ("vertices", string_of_int n) ]
    "greedy.color_in_order"
    (fun () ->
      let st = Ff.create inst in
      Ff.color_range st order ~lo:0 ~hi:n;
      if Ff.remaining st <> 0 then
        invalid_arg "Greedy.color_in_order: order is not a permutation";
      Ff.starts_view st)

let color_in_order_graph g ~w order =
  let n = Csr.n_vertices g in
  let starts = Array.make n Coloring.uncolored in
  let colored = ref 0 in
  let buf = Array.make (max 1 (Csr.max_degree g)) (0, 0) in
  Array.iter
    (fun v ->
      if starts.(v) < 0 then begin
        let count = ref 0 in
        Csr.iter_neighbors g v (fun u ->
            if starts.(u) >= 0 && w.(u) > 0 then begin
              buf.(!count) <- (starts.(u), starts.(u) + w.(u));
              incr count
            end);
        sort_prefix buf !count;
        starts.(v) <- scan_gap buf !count w.(v);
        incr colored
      end)
    order;
  if !colored <> n then
    invalid_arg "Greedy.color_in_order_graph: order is not a permutation";
  starts
