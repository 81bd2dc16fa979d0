type error =
  | Unreadable of string
  | Truncated
  | Bad_magic
  | Version_mismatch of { expected : int; got : int }
  | Bad_checksum of { expected : int; got : int }
  | Bad_payload of string
  | Wrong_kind of { expected : string; got : string }
  | Instance_mismatch

let error_to_string = function
  | Unreadable msg -> Printf.sprintf "snapshot unreadable: %s" msg
  | Truncated -> "snapshot truncated"
  | Bad_magic -> "snapshot has wrong magic (not a snapshot file?)"
  | Version_mismatch { expected; got } ->
      Printf.sprintf "snapshot version %d, this binary reads %d" got expected
  | Bad_checksum { expected; got } ->
      Printf.sprintf "snapshot checksum mismatch (stored %08x, computed %08x)"
        expected got
  | Bad_payload msg -> Printf.sprintf "snapshot payload corrupt: %s" msg
  | Wrong_kind { expected; got } ->
      Printf.sprintf "snapshot holds %s state, expected %s" got expected
  | Instance_mismatch -> "snapshot was taken for a different instance"

type t = { kind : string; payload : string }

let magic = "\137IVCSNAP"
let version = 1

let c_written = Ivc_obs.Counter.make "persist.snapshots_written"
let c_bytes = Ivc_obs.Counter.make "persist.snapshot_bytes"

let to_string t =
  let body = Codec.W.create () in
  Codec.W.string body t.kind;
  Codec.W.string body t.payload;
  let body = Codec.W.contents body in
  let head = Codec.W.create () in
  Codec.W.int head version;
  Codec.W.int head (Codec.crc32 body);
  magic ^ Codec.W.contents head ^ body

let of_string s =
  let ( let* ) r f = Result.bind r f in
  let* () = if String.length s < 8 then Error Truncated else Ok () in
  let* () = if String.sub s 0 8 <> magic then Error Bad_magic else Ok () in
  let* () = if String.length s < 24 then Error Truncated else Ok () in
  let r = Codec.R.of_string (String.sub s 8 (String.length s - 8)) in
  match
    let got_version = Codec.R.int r in
    let stored_crc = Codec.R.int r in
    (got_version, stored_crc)
  with
  | exception Codec.Corrupt _ -> Error Truncated
  | got_version, stored_crc -> (
      if got_version <> version then
        Error (Version_mismatch { expected = version; got = got_version })
      else
        let body = String.sub s 24 (String.length s - 24) in
        let crc = Codec.crc32 body in
        if crc <> stored_crc then
          Error (Bad_checksum { expected = stored_crc; got = crc })
        else
          match
            let br = Codec.R.of_string body in
            let kind = Codec.R.string br in
            let payload = Codec.R.string br in
            Codec.R.expect_end br;
            { kind; payload }
          with
          | t -> Ok t
          | exception Codec.Corrupt _ ->
              (* the checksum passed, so this is not bit rot: the
                 writer and reader disagree on framing *)
              Error Truncated)

(* Atomic install. The temp name is deterministic (single writer per
   file): a crash mid-write leaves a stale .tmp that the next install
   simply overwrites, and the destination is only ever replaced by a
   complete, fsynced file. *)
let install path bytes =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.unsafe_of_string bytes in
      let len = Bytes.length b in
      let written = ref 0 in
      while !written < len do
        written := !written + Unix.write fd b !written (len - !written)
      done;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* best-effort directory sync so the rename itself is durable *)
  try
    let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close dir with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync dir)
  with Unix.Unix_error _ | Sys_error _ -> ()

let save path t =
  Ivc_obs.Span.record ~cat:"persist"
    ~args:[ ("kind", t.kind); ("path", path) ]
    "persist.snapshot_write"
  @@ fun () ->
  let bytes = to_string t in
  install path bytes;
  Ivc_obs.Counter.incr c_written;
  Ivc_obs.Counter.add c_bytes (String.length bytes)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Unreadable msg)
  | exception End_of_file -> Error Truncated
  | contents -> of_string contents

let decode t ~kind read =
  if t.kind <> kind then Error (Wrong_kind { expected = kind; got = t.kind })
  else
    match
      let r = Codec.R.of_string t.payload in
      let v = read r in
      Codec.R.expect_end r;
      v
    with
    | v -> Ok v
    | exception Codec.Corrupt msg -> Error (Bad_payload msg)

(* splitmix64 over dims and weights. Persist sits lowest in the
   dependency order, so this finalizer is the one every seeded stream
   shares. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fingerprint inst =
  let feed acc v = mix64 (Int64.add acc (Int64.of_int v)) in
  let acc =
    match (inst : Ivc_grid.Stencil.t).dims with
    | Ivc_grid.Stencil.D2 (x, y) -> feed (feed (feed 2L x) y) 1
    | Ivc_grid.Stencil.D3 (x, y, z) -> feed (feed (feed (feed 3L x) y) z) 1
  in
  Array.fold_left feed acc (inst : Ivc_grid.Stencil.t).w
