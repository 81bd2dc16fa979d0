(** Durable write-ahead operation log: CRC-framed records in
    append-only segment files, the persistence substrate of the
    serving layer's replication stream.

    {2 On-disk layout}

    A log is a directory of segments. The active segment is
    [wal-<index>.open]; when it reaches [segment_bytes] it is sealed —
    fsync, then an atomic rename to [wal-<index>.seg] (the same
    tmp-then-rename install discipline as {!Snapshot.save}) — and a
    fresh [.open] starts at the next index. Each segment is:

    {v
    magic   8 bytes   "\137IVCWAL1"
    record  repeated:
      length   8 bytes  little-endian payload length
      crc32    8 bytes  little-endian CRC-32 of the payload
      payload  [length] bytes (opaque to the log)
    v}

    {2 Fail-closed recovery}

    {!open_log} and {!replay} surface records strictly in append
    order and stop at the {e first} frame that fails any check
    (missing header, insane length, short body, CRC mismatch). What
    survives is always a prefix of what was appended — never a
    subsequence with holes, which matters because the serving layer
    replays the log as an operation stream and a stream with holes
    reconstructs a state nobody ever had. {!open_log} additionally
    truncates the damaged file at the last valid frame boundary and
    deletes every later segment, so the next writer appends onto a
    clean prefix. *)

type recovery = {
  segments : int;  (** segment files found *)
  records : int;  (** valid records replayed, in order *)
  truncated : bool;  (** a bad frame was hit and the log cut there *)
  dropped_bytes : int;  (** bytes discarded at and after the bad frame *)
}

type t
(** A single-writer append handle. Appends are not internally locked;
    the owner serializes them (the server journals under its
    replication-feed lock). *)

val open_log :
  ?segment_bytes:int ->
  ?fsync:bool ->
  dir:string ->
  (int -> string -> unit) ->
  t * recovery
(** [open_log ~dir f] creates [dir] if missing, replays every valid
    record as [f seq payload] (seq counts from 0), repairs the log to
    its valid prefix (fail-closed truncation, see above), and returns
    a handle positioned to append after the last valid record.
    [segment_bytes] (default 1 MiB, floor 4 KiB) bounds a segment
    before rotation; [fsync] (default [true]) syncs every append —
    turn it off only where durability is not the point (tests). *)

val append : t -> string -> int
(** Append one opaque payload, returning its sequence number. With
    [fsync] the record is on disk when this returns. Rotation and
    sealing happen transparently. Raises [Invalid_argument] on a
    closed log or a payload over the 64 MiB record cap. *)

val head : t -> int
(** Total records in the log — the sequence number the next {!append}
    returns. *)

val close : t -> unit
(** Flush and close the active segment. Idempotent. *)

val replay : dir:string -> (int -> string -> unit) -> recovery
(** Read-only fail-closed replay: like {!open_log}'s recovery but
    touching nothing on disk — the oracle's view of "the journaled
    WAL prefix". A missing directory is an empty log. *)

val read_range :
  t -> from:int -> until:int -> (int -> string -> unit) -> int
(** [read_range t ~from ~until f] reads the log's records with
    sequence numbers in [\[from, until)] back from disk as
    [f seq payload], in order, along its valid prefix — which here also
    ends wherever a segment does not start at the sequence number this
    handle gave its first record (a segment deleted or cut short from
    outside, say by a scrub), so a record is never surfaced under any
    number but the one it was appended at. Returns the sequence number
    after the last record surfaced ([from] when none was). Read-only
    and safe beside the writer: a torn or not-yet-renamed tail just
    ends the prefix early. *)

val verify_file : string -> [ `Ok of int | `Damaged of int * int ]
(** Scrub entry point: scan one segment file without surfacing
    payloads. [`Ok records] means every frame checks out;
    [`Damaged (valid_records, valid_bytes)] locates the first bad
    frame (an unreadable or headerless file is [`Damaged (0, 0)]). *)

val read_file : string -> string
(** A whole file's bytes. Raises [Sys_error] (or [End_of_file] if the
    file shrinks mid-read). *)

val is_segment : string -> bool
(** [true] on a sealed segment's basename ([wal-<16 hex>.seg]). *)

val is_active : string -> bool
(** [true] on an active segment's basename ([wal-<16 hex>.open]) —
    owned by a live writer, not safe to rewrite from outside. *)
