module Stencil = Ivc_grid.Stencil
module Ff = Ivc_kernel.Ff
module Cert = Ivc_resilient.Cert

let c_applies = Ivc_obs.Counter.make "incremental.applies"
let c_repaired = Ivc_obs.Counter.make "incremental.repaired"
let c_resolved = Ivc_obs.Counter.make "incremental.resolved"
let c_front = Ivc_obs.Counter.make "incremental.front_cells"

type provenance = Repaired of { front_cells : int; waves : int } | Resolved

let provenance_to_string = function
  | Repaired { front_cells; waves } ->
      Printf.sprintf "repaired(front=%d,waves=%d)" front_cells waves
  | Resolved -> "resolved"

type outcome = { provenance : provenance; maxcolor : int; changed_cells : int }

type error = Bad_delta of string | Cert_failed of Cert.error

let error_to_string = function
  | Bad_delta msg -> msg
  | Cert_failed e -> Cert.to_string e

(* The starts digest: a wrapping sum of one mixed term per cell. Each
   term is a bijection of (cell, start) — an injective affine map
   followed by odd multiplies and xor-shifts — so replacing one start
   always moves the sum, and a patch updates it in O(1) per cell. *)
let[@inline] cell_digest v s =
  let z = (v * 0x2545f4914f6cdd1d) + s in
  let z = (z lxor (z lsr 31)) * 0x3c79ac492ba7b653 in
  let z = (z lxor (z lsr 29)) * 0x1c69b3f74ac4ae35 in
  z lxor (z lsr 32)

let digest_of starts =
  let d = ref 0 in
  Array.iteri (fun v s -> d := !d + cell_digest v s) starts;
  !d

(* Growable int stack (the per-apply changed-cell list). *)
type stack = { mutable buf : int array; mutable len : int }

let stack_make () = { buf = Array.make 64 0; len = 0 }

let stack_push st x =
  if st.len = Array.length st.buf then begin
    let b = Array.make (2 * st.len) 0 in
    Array.blit st.buf 0 b 0 st.len;
    st.buf <- b
  end;
  st.buf.(st.len) <- x;
  st.len <- st.len + 1

(* Binary min-heap of cell ids: the ascending repair worklist. *)
type heap = { mutable h : int array; mutable hlen : int }

let heap_make () = { h = Array.make 64 0; hlen = 0 }

let heap_push hp x =
  if hp.hlen = Array.length hp.h then begin
    let b = Array.make (2 * hp.hlen) 0 in
    Array.blit hp.h 0 b 0 hp.hlen;
    hp.h <- b
  end;
  let a = hp.h in
  let i = ref hp.hlen in
  hp.hlen <- hp.hlen + 1;
  a.(!i) <- x;
  while !i > 0 && a.((!i - 1) / 2) > a.(!i) do
    let p = (!i - 1) / 2 in
    let tmp = a.(p) in
    a.(p) <- a.(!i);
    a.(!i) <- tmp;
    i := p
  done

let heap_pop hp =
  let a = hp.h in
  let top = a.(0) in
  hp.hlen <- hp.hlen - 1;
  a.(0) <- a.(hp.hlen);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < hp.hlen && a.(l) < a.(!m) then m := l;
    if r < hp.hlen && a.(r) < a.(!m) then m := r;
    if !m = !i then continue := false
    else begin
      let tmp = a.(!m) in
      a.(!m) <- a.(!i);
      a.(!i) <- tmp;
      i := !m
    end
  done;
  top

type t = {
  mutable inst : Stencil.t;
  mutable sc : Ff.scratch;
  mutable starts : int array;
  mutable n : int;
  budget : int;
  mutable fin : int array;
      (* histogram of finish values s + w over colored cells *)
  mutable maxc : int;
  mutable digest : int;  (* digest_of starts, kept in step *)
  heap : heap;
  changed : stack;
  inq : (int, int) Hashtbl.t; (* dirty id -> propagation depth *)
  orig : (int, int * int) Hashtbl.t; (* seed id -> pre-delta (start, weight) *)
}

let default_budget inst = max 64 (Stencil.n_vertices inst / 8)

let instance t = t.inst
let n_vertices t = t.n
let budget t = t.budget
let starts t = Array.copy t.starts
let starts_view t = t.starts
let maxcolor t = t.maxc
let digest t = t.digest
let changed t = Array.sub t.changed.buf 0 t.changed.len

let[@inline] set_start t v s =
  let old = t.starts.(v) in
  if s <> old then begin
    t.digest <- t.digest - cell_digest v old + cell_digest v s;
    t.starts.(v) <- s
  end

let[@inline] inc_fin t f =
  if f >= Array.length t.fin then begin
    let cap = max (2 * Array.length t.fin) (f + 1) in
    let b = Array.make cap 0 in
    Array.blit t.fin 0 b 0 (Array.length t.fin);
    t.fin <- b
  end;
  t.fin.(f) <- t.fin.(f) + 1;
  if f > t.maxc then t.maxc <- f

let[@inline] dec_fin t f = t.fin.(f) <- t.fin.(f) - 1

let settle_maxc t =
  while t.maxc > 0 && t.fin.(t.maxc) = 0 do
    t.maxc <- t.maxc - 1
  done

let rebuild_hist t =
  Array.fill t.fin 0 (Array.length t.fin) 0;
  t.maxc <- 0;
  let w = (t.inst : Stencil.t).w in
  for v = 0 to t.n - 1 do
    let s = t.starts.(v) in
    if s >= 0 then inc_fin t (s + w.(v))
  done

(* Canonical sweep in place: ascending order only ever reads starts of
   already-recomputed smaller ids, so no clearing pass is needed even
   from a half-repaired state. Returns how many starts the sweep moved.
   The changed list ends up ascending and duplicate-free: every cell
   the abandoned repair already touched, plus every cell the sweep
   moves — together, every cell that may differ from before the
   delta. *)
let resolve_in_place t =
  let moved = ref 0 in
  let sc = t.sc and starts = t.starts in
  let touched = Bytes.make t.n '\000' in
  for i = 0 to t.changed.len - 1 do
    Bytes.set touched t.changed.buf.(i) '\001'
  done;
  t.changed.len <- 0;
  for v = 0 to t.n - 1 do
    let s = Ff.first_fit_below sc ~starts v in
    let m = s <> starts.(v) in
    if m then begin
      incr moved;
      set_start t v s
    end;
    if m || Bytes.get touched v = '\001' then stack_push t.changed v
  done;
  Ff.flush_stats sc;
  rebuild_hist t;
  !moved

let rebuild_instance inst w extra_slabs =
  match (inst : Stencil.t).dims with
  | Stencil.D2 (x, y) -> Stencil.make2 ~x:(x + extra_slabs) ~y w
  | Stencil.D3 (x, y, z) -> Stencil.make3 ~x:(x + extra_slabs) ~y ~z w

let create ?budget inst0 =
  let inst = rebuild_instance inst0 (Array.copy (inst0 : Stencil.t).w) 0 in
  let n = Stencil.n_vertices inst in
  let sc = Ff.make_scratch inst in
  let starts = Array.make n (-1) in
  for v = 0 to n - 1 do
    starts.(v) <- Ff.first_fit_below sc ~starts v
  done;
  Ff.flush_stats sc;
  let mc = Cert.assert_ok inst starts in
  let t =
    {
      inst;
      sc;
      starts;
      n;
      budget =
        (match budget with Some b -> max 0 b | None -> default_budget inst);
      fin = Array.make (mc + 1) 0;
      maxc = 0;
      digest = digest_of starts;
      heap = heap_make ();
      changed = stack_make ();
      inq = Hashtbl.create 64;
      orig = Hashtbl.create 16;
    }
  in
  rebuild_hist t;
  t

let push_dirty t v depth =
  match Hashtbl.find_opt t.inq v with
  | Some d -> if depth < d then Hashtbl.replace t.inq v depth
  | None ->
      Hashtbl.replace t.inq v depth;
      heap_push t.heap v

exception Budget_exceeded

let run_repair t ~budget =
  let w = (t.inst : Stencil.t).w in
  let pops = ref 0 and waves = ref 0 in
  (try
     while t.heap.hlen > 0 do
       if !pops >= budget then raise Budget_exceeded;
       let v = heap_pop t.heap in
       incr pops;
       let old_s = t.starts.(v) in
       let old_w =
         match Hashtbl.find_opt t.orig v with
         | Some (_, w0) -> w0
         | None -> w.(v)
       in
       let new_s = Ff.first_fit_below t.sc ~starts:t.starts v in
       set_start t v new_s;
       let nw = w.(v) in
       if old_s <> new_s || old_w <> nw then begin
         stack_push t.changed v;
         if old_s >= 0 then dec_fin t (old_s + old_w);
         inc_fin t (new_s + nw);
         let d = Hashtbl.find t.inq v in
         if d > !waves then waves := d;
         (* Neighbors only see non-empty intervals; an empty-to-empty
            transition (uncolored or zero-weight before and after)
            propagates nothing. *)
         let vis_old = old_s >= 0 && old_w > 0 and vis_new = nw > 0 in
         let visible_changed =
           (vis_old || vis_new)
           && (vis_old <> vis_new || old_s <> new_s || old_w <> nw)
         in
         if visible_changed then
           Stencil.iter_neighbors t.inst v (fun u ->
               if u > v then push_dirty t u (d + 1))
       end
     done;
     Ff.flush_stats t.sc;
     settle_maxc t;
     let cells = Array.sub t.changed.buf 0 t.changed.len in
     match Cert.check_cells t.inst t.starts ~cells with
     | Error e -> Error (Cert_failed e)
     | Ok () ->
         Ivc_obs.Counter.incr c_repaired;
         Ivc_obs.Counter.add c_front !pops;
         Ok
           {
             provenance = Repaired { front_cells = !pops; waves = !waves };
             maxcolor = t.maxc;
             changed_cells = t.changed.len;
           }
   with Budget_exceeded -> (
     Ff.flush_stats t.sc;
     let changed = resolve_in_place t in
     match Cert.check t.inst t.starts with
     | Error e -> Error (Cert_failed e)
     | Ok mc ->
         Ivc_obs.Counter.incr c_resolved;
         t.maxc <- mc;
         Ok { provenance = Resolved; maxcolor = mc; changed_cells = changed }))

let reset_work t =
  t.heap.hlen <- 0;
  t.changed.len <- 0;
  Hashtbl.reset t.inq;
  Hashtbl.reset t.orig

let apply ?budget t d =
  match Delta.validate t.inst d with
  | Error e -> Error (Bad_delta e)
  | Ok () ->
      Ivc_obs.Counter.incr c_applies;
      let budget = match budget with Some b -> max 0 b | None -> t.budget in
      reset_work t;
      (match d with
      | Delta.Bump { v; dw } ->
          let w = (t.inst : Stencil.t).w in
          if dw <> 0 then begin
            Hashtbl.replace t.orig v (t.starts.(v), w.(v));
            w.(v) <- w.(v) + dw;
            push_dirty t v 1
          end
      | Delta.Batch ops ->
          let w = (t.inst : Stencil.t).w in
          Array.iter
            (fun (v, dw) ->
              if dw <> 0 then begin
                if not (Hashtbl.mem t.orig v) then
                  Hashtbl.replace t.orig v (t.starts.(v), w.(v));
                w.(v) <- w.(v) + dw
              end)
            ops;
          Hashtbl.iter
            (fun v (_, w0) -> if w.(v) <> w0 then push_dirty t v 1)
            t.orig
      | Delta.Extend { slabs; w = ext } ->
          let old_n = t.n in
          let neww = Array.append (t.inst : Stencil.t).w ext in
          let inst' = rebuild_instance t.inst neww slabs in
          let n' = Stencil.n_vertices inst' in
          let starts' = Array.make n' (-1) in
          Array.blit t.starts 0 starts' 0 old_n;
          for v = old_n to n' - 1 do
            t.digest <- t.digest + cell_digest v (-1)
          done;
          t.inst <- inst';
          t.sc <- Ff.make_scratch inst';
          t.starts <- starts';
          t.n <- n';
          for v = old_n to n' - 1 do
            push_dirty t v 1
          done);
      run_repair t ~budget

let certify t = Cert.check t.inst t.starts

let resolve inst =
  let n = Stencil.n_vertices inst in
  let sc = Ff.make_scratch inst in
  let starts = Array.make n (-1) in
  for v = 0 to n - 1 do
    starts.(v) <- Ff.first_fit_below sc ~starts v
  done;
  Ff.flush_stats sc;
  starts
