module S = Ivc_grid.Stencil
module Obs = Ivc_obs

let c_hits = Obs.Counter.make "server.cache_hits"
let c_misses = Obs.Counter.make "server.cache_misses"
let c_collisions = Obs.Counter.make "server.cache_collisions"
let c_evictions = Obs.Counter.make "server.cache_evictions"

type entry = {
  starts : int array;
  maxcolor : int;
  lower_bound : int;
  provenance : string;
  proven_optimal : bool;
}

type slot = { inst : S.t; entry : entry }

type t = {
  mutex : Mutex.t;
  capacity : int;
  table : (int64, slot) Hashtbl.t;
  fifo : int64 Queue.t;  (* insertion order, oldest first *)
  mutable evicted : int;  (* per-table, served in Stats *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    mutex = Mutex.create ();
    capacity;
    table = Hashtbl.create (max 16 capacity);
    fifo = Queue.create ();
    evicted = 0;
  }

let same_instance (a : S.t) (b : S.t) = a.S.dims = b.S.dims && a.S.w = b.S.w

let find t ~fp ~inst =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table fp with
    | Some slot when same_instance slot.inst inst ->
        Obs.Counter.incr c_hits;
        Some slot.entry
    | Some _ ->
        (* fingerprint collision between distinct instances: fail to a
           miss — the stored answer belongs to someone else *)
        Obs.Counter.incr c_collisions;
        Obs.Counter.incr c_misses;
        None
    | None ->
        Obs.Counter.incr c_misses;
        None
  in
  Mutex.unlock t.mutex;
  r

let store t ~fp ~inst entry =
  if t.capacity > 0 then begin
    Mutex.lock t.mutex;
    if not (Hashtbl.mem t.table fp) then begin
      if Hashtbl.length t.table >= t.capacity then begin
        let oldest = Queue.pop t.fifo in
        Hashtbl.remove t.table oldest;
        t.evicted <- t.evicted + 1;
        Obs.Counter.incr c_evictions
      end;
      Hashtbl.replace t.table fp { inst; entry };
      Queue.push fp t.fifo
    end;
    Mutex.unlock t.mutex
  end

let instance t fp =
  Mutex.lock t.mutex;
  let r = Option.map (fun slot -> slot.inst) (Hashtbl.find_opt t.table fp) in
  Mutex.unlock t.mutex;
  r

let size t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

let capacity t = t.capacity

let evicted t =
  Mutex.lock t.mutex;
  let n = t.evicted in
  Mutex.unlock t.mutex;
  n
