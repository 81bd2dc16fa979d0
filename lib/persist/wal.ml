(* Write-ahead operation log: CRC-framed records in append-only
   segment files. The durability story mirrors Snapshot's: nothing is
   trusted on read-back (per-record CRC over the payload, fixed-width
   headers so a cut at any byte is detected), and nothing is installed
   non-atomically (the active segment is a [.open] file; sealing it is
   one fsync + rename, the same tmp-then-rename discipline as
   Snapshot.save).

   Recovery is fail-closed with a prefix guarantee: records are
   replayed in order until the first frame that fails any check, the
   damaged file is truncated at the last valid byte, and every later
   segment is dropped — the survivors are exactly a prefix of what was
   appended, never a subsequence with holes. A WAL consumer (the
   serving layer replaying solve/delta operations) depends on that:
   an op stream with a hole replays into a state nobody ever had. *)

let magic = "\137IVCWAL1"
let header_bytes = String.length magic
let record_header_bytes = 16
let max_record = 64 * 1024 * 1024

let c_appended = Ivc_obs.Counter.make "wal.records_appended"
let c_replayed = Ivc_obs.Counter.make "wal.records_replayed"
let c_truncations = Ivc_obs.Counter.make "wal.recovery_truncations"
let c_sealed = Ivc_obs.Counter.make "wal.segments_sealed"

type recovery = {
  segments : int;
  records : int;
  truncated : bool;
  dropped_bytes : int;
}

type t = {
  dir : string;
  segment_bytes : int;
  fsync : bool;
  mutable fd : Unix.file_descr;
  mutable active : string; (* path of the current .open segment *)
  mutable active_index : int;
  mutable bytes : int; (* bytes written to the active segment *)
  mutable head : int; (* total records in the log = next seq *)
  mutable firsts : (int * int) list;
      (* (segment index, seq of its first record), newest first: what
         this writer put where, for [read_range] to check the disk
         against *)
  mutable closed : bool;
}

let seg_name i = Printf.sprintf "wal-%016x.seg" i
let open_name i = Printf.sprintf "wal-%016x.open" i

(* [wal-<16 hex>.seg] / [.open] -> Some (index, sealed) *)
let parse_name name =
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let tagged suffix =
    String.length name = 4 + 16 + String.length suffix
    && String.sub name 0 4 = "wal-"
    && String.sub name (20) (String.length suffix) = suffix
    && String.for_all is_hex (String.sub name 4 16)
  in
  let index () = int_of_string ("0x" ^ String.sub name 4 16) in
  if tagged ".seg" then Some (index (), true)
  else if tagged ".open" then Some (index (), false)
  else None

let fsync_dir dir =
  try
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync fd)
  with Unix.Unix_error _ | Sys_error _ -> ()

(* ---- frame scan ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Scan one segment's contents, calling [f] per valid payload; returns
   the verdict with the byte offset of the last valid frame boundary.
   Every way a frame can be damaged — missing header, insane length,
   short body, CRC mismatch — stops the scan at the previous boundary;
   nothing after the first bad frame is surfaced. *)
let scan_string contents f =
  let len = String.length contents in
  if len < header_bytes || String.sub contents 0 header_bytes <> magic then
    `Damaged (0, 0)
  else begin
    let records = ref 0 in
    let off = ref header_bytes in
    let verdict = ref None in
    (try
       while !off < len do
         if len - !off < record_header_bytes then raise Exit;
         let rlen = Int64.to_int (String.get_int64_le contents !off) in
         let crc = Int64.to_int (String.get_int64_le contents (!off + 8)) in
         if rlen < 0 || rlen > max_record then raise Exit;
         if len - !off - record_header_bytes < rlen then raise Exit;
         let payload = String.sub contents (!off + record_header_bytes) rlen in
         if Codec.crc32 payload <> crc then raise Exit;
         f payload;
         incr records;
         off := !off + record_header_bytes + rlen
       done;
       verdict := Some (`Ok !records)
     with Exit -> verdict := Some (`Damaged (!records, !off)));
    Option.get !verdict
  end

let verify_file path =
  match read_file path with
  | exception (Sys_error _ | End_of_file) -> `Damaged (0, 0)
  | contents -> scan_string contents (fun _ -> ())

(* ---- recovery + open ------------------------------------------------- *)

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match parse_name name with
         | Some (i, sealed) -> Some (i, sealed, Filename.concat dir name)
         | None -> None)
  (* sealed before open at the same index: the rename that seals wins *)
  |> List.sort (fun (a, sa, _) (b, sb, _) ->
         if a <> b then compare a b else compare sa sb)

let write_segment_header fd = ignore (Unix.write_substring fd magic 0 header_bytes)

let fresh_segment dir index =
  let path = Filename.concat dir (open_name index) in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_segment_header fd;
  (path, fd)

let open_log ?(segment_bytes = 1 lsl 20) ?(fsync = true) ~dir f =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let segments = list_segments dir in
  let records = ref 0 in
  let truncated = ref false in
  let dropped = ref 0 in
  let firsts = ref [] in
  (* Replay in order; at the first bad frame truncate that file and
     drop everything after it (later segments included). *)
  let rec replay = function
    | [] -> None
    | (index, sealed, path) :: rest -> (
        firsts := (index, !records) :: !firsts;
        let contents = try read_file path with Sys_error _ | End_of_file -> "" in
        match scan_string contents (fun payload ->
                  records := !records + 1;
                  Ivc_obs.Counter.incr c_replayed;
                  f (!records - 1) payload)
        with
        | `Ok _ -> (
            match replay rest with
            | Some tail -> Some tail
            | None -> Some (index, sealed, path, String.length contents))
        | `Damaged (_, valid_bytes) ->
            truncated := true;
            Ivc_obs.Counter.incr c_truncations;
            dropped := !dropped + (String.length contents - valid_bytes);
            if valid_bytes >= header_bytes then
              Unix.truncate path valid_bytes
            else begin
              (* not even a header survived: the file is noise *)
              dropped := !dropped + valid_bytes;
              Sys.remove path
            end;
            List.iter
              (fun (_, _, p) ->
                (try dropped := !dropped + (Unix.stat p).Unix.st_size
                 with Unix.Unix_error _ -> ());
                try Sys.remove p with Sys_error _ -> ())
              rest;
            if valid_bytes >= header_bytes then
              Some (index, sealed, path, valid_bytes)
            else None)
  in
  let last = replay segments in
  (* Position the writer: append to a surviving .open segment, or
     start a fresh one after the last sealed segment. *)
  let active_index, active, fd, bytes =
    match last with
    | Some (index, false, path, bytes) ->
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
        (index, path, fd, bytes)
    | Some (index, true, _, _) ->
        let path, fd = fresh_segment dir (index + 1) in
        firsts := (index + 1, !records) :: !firsts;
        (index + 1, path, fd, header_bytes)
    | None ->
        let path, fd = fresh_segment dir 0 in
        firsts := [ (0, 0) ];
        (0, path, fd, header_bytes)
  in
  ( {
      dir;
      segment_bytes = max 4096 segment_bytes;
      fsync;
      fd;
      active;
      active_index;
      bytes;
      head = !records;
      firsts = !firsts;
      closed = false;
    },
    {
      segments = List.length segments;
      records = !records;
      truncated = !truncated;
      dropped_bytes = !dropped;
    } )

let replay ~dir f =
  if not (Sys.file_exists dir) then
    { segments = 0; records = 0; truncated = false; dropped_bytes = 0 }
  else begin
    let records = ref 0 in
    let truncated = ref false in
    let dropped = ref 0 in
    let segments = list_segments dir in
    (try
       List.iter
         (fun (_, _, path) ->
           let contents =
             try read_file path with Sys_error _ | End_of_file -> ""
           in
           match
             scan_string contents (fun payload ->
                 records := !records + 1;
                 f (!records - 1) payload)
           with
           | `Ok _ -> ()
           | `Damaged (_, valid_bytes) ->
               truncated := true;
               dropped := !dropped + (String.length contents - valid_bytes);
               raise Exit)
         segments
     with Exit -> ());
    {
      segments = List.length segments;
      records = !records;
      truncated = !truncated;
      dropped_bytes = !dropped;
    }
  end

(* Stricter than [replay] about what a sequence number means: every
   segment must start at the sequence number this writer gave its first
   record. A segment gone from the middle (a scrub quarantine, a hand
   deletion) or cut short (a scrub re-installing a valid prefix) would
   make [replay] renumber every later record; here the read stops
   there instead. The same map lets the read skip, unopened, every
   segment that ends before [from]. Reads only an immutable snapshot of
   the handle's state, never its descriptor. *)
let read_range t ~from ~until f =
  let firsts = Hashtbl.of_seq (List.to_seq t.firsts) in
  let next = ref 0 in
  (try
     List.iter
       (fun (index, _, path) ->
         if !next >= until || Hashtbl.find_opt firsts index <> Some !next then
           raise Exit;
         match Hashtbl.find_opt firsts (index + 1) with
         | Some after when after <= from -> next := after
         | _ -> (
             let contents =
               try read_file path with Sys_error _ | End_of_file -> ""
             in
             match
               scan_string contents (fun payload ->
                   if !next >= until then raise Exit;
                   if !next >= from then f !next payload;
                   incr next)
             with
             | `Ok _ -> ()
             | `Damaged _ -> raise Exit))
       (list_segments t.dir)
   with Exit -> ());
  max from (min !next until)

(* ---- append ----------------------------------------------------------- *)

let write_all fd b =
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd b !written (len - !written)
  done

let rotate t =
  (* seal: fsync the finished segment, then atomically install it
     under its .seg name; a crash at any point leaves either the
     (still recoverable) .open or the sealed file, never a torn one *)
  Unix.fsync t.fd;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let sealed = Filename.concat t.dir (seg_name t.active_index) in
  Unix.rename t.active sealed;
  fsync_dir t.dir;
  Ivc_obs.Counter.incr c_sealed;
  let index = t.active_index + 1 in
  let path, fd = fresh_segment t.dir index in
  t.fd <- fd;
  t.active <- path;
  t.active_index <- index;
  t.bytes <- header_bytes;
  t.firsts <- (index, t.head) :: t.firsts

let append t payload =
  if t.closed then invalid_arg "Wal.append: log is closed";
  let len = String.length payload in
  if len > max_record then invalid_arg "Wal.append: record over the 64 MiB cap";
  let frame = Bytes.create (record_header_bytes + len) in
  Bytes.set_int64_le frame 0 (Int64.of_int len);
  Bytes.set_int64_le frame 8 (Int64.of_int (Codec.crc32 payload));
  Bytes.blit_string payload 0 frame record_header_bytes len;
  write_all t.fd frame;
  if t.fsync then Unix.fsync t.fd;
  t.bytes <- t.bytes + Bytes.length frame;
  let seq = t.head in
  t.head <- seq + 1;
  Ivc_obs.Counter.incr c_appended;
  if t.bytes >= t.segment_bytes then rotate t;
  seq

let head t = t.head

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let is_segment name =
  match parse_name name with Some (_, true) -> true | _ -> false

let is_active name =
  match parse_name name with Some (_, false) -> true | _ -> false
