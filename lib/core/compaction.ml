module Stencil = Ivc_grid.Stencil

let compact inst starts =
  let n = Stencil.n_vertices inst in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      if starts.(a) <> starts.(b) then compare starts.(a) starts.(b)
      else compare a b)
    order;
  Ivc_kernel.Ff.color_in_order inst order

(* How far down can v slide given the other vertices' current
   positions? 0 if blocked in place. *)
let slide_room inst starts v =
  let w = (inst : Stencil.t).w in
  if w.(v) = 0 then starts.(v)
  else begin
    (* the nearest neighbor finish below start(v), or 0 *)
    let floor_ = ref 0 in
    Stencil.iter_neighbors inst v (fun u ->
        if w.(u) > 0 then begin
          let fin = starts.(u) + w.(u) in
          if fin <= starts.(v) && fin > !floor_ then floor_ := fin
        end);
    starts.(v) - !floor_
  end

let slide_fixpoint inst starts =
  let n = Stencil.n_vertices inst in
  let cur = Array.copy starts in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      let room = slide_room inst cur v in
      if room > 0 then begin
        cur.(v) <- cur.(v) - room;
        changed := true
      end
    done
  done;
  cur

let is_compact inst starts =
  let n = Stencil.n_vertices inst in
  let ok = ref true in
  for v = 0 to n - 1 do
    if slide_room inst starts v > 0 then ok := false
  done;
  !ok

let slack inst starts =
  let n = Stencil.n_vertices inst in
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + slide_room inst starts v
  done;
  !total
