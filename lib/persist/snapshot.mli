(** Versioned, checksummed, crash-only snapshot files.

    A snapshot is a [kind] tag (which solver state the payload holds)
    plus an opaque payload string, framed as

    {v
    magic    8 bytes  "\137IVCSNAP" (high bit set: catches text-mode mangling)
    version  8 bytes  little-endian
    crc      8 bytes  CRC-32 of everything after this field
    kind     length-prefixed string
    payload  length-prefixed string
    (end of file -- trailing bytes are rejected)
    v}

    Installation is atomic and crash-only: the bytes are written to
    [path ^ ".tmp"], fsynced, and renamed over [path], so at every
    instant [path] either holds the previous complete snapshot or the
    new complete snapshot, never a torn write. A crash between rename
    and directory sync can at worst lose the newest snapshot, never
    corrupt one.

    Reading fails closed: every way a file can be wrong — unreadable,
    truncated at any byte, wrong magic, wrong version, checksum
    mismatch, undecodable payload, payload for a different solver or a
    different instance — maps to a typed {!error}; no exception
    escapes {!load} and no corrupt state is ever silently resumed. *)

type error =
  | Unreadable of string  (** file missing or IO failure (message) *)
  | Truncated  (** shorter than its own framing claims *)
  | Bad_magic
  | Version_mismatch of { expected : int; got : int }
  | Bad_checksum of { expected : int; got : int }
  | Bad_payload of string  (** framing ok, payload undecodable *)
  | Wrong_kind of { expected : string; got : string }
      (** a valid snapshot of some other solver's state *)
  | Instance_mismatch
      (** payload fingerprint does not match the instance being
          resumed *)

val error_to_string : error -> string

type t = { kind : string; payload : string }

val version : int
val to_string : t -> string

val of_string : string -> (t, error) result
(** Pure framing decode; exercised byte-by-byte by the corruption
    tests. *)

val install : string -> string -> unit
(** [install path bytes] atomically replaces [path] with [bytes]:
    write to [path ^ ".tmp"], fsync, rename over [path], then a
    best-effort fsync of the directory so the rename itself is
    durable. Raises [Sys_error] / [Unix.Unix_error] if the destination
    is unwritable. *)

val save : string -> t -> unit
(** Atomic {!install} of the framed snapshot. Records the
    [persist.snapshots_written] / [persist.snapshot_bytes] counters and
    a [persist.snapshot_write] span. Raises [Sys_error] /
    [Unix.Unix_error] if the destination is unwritable — losing the
    ability to checkpoint is an environment error, not a solver
    error. *)

val load : string -> (t, error) result

val decode :
  t -> kind:string -> (Codec.R.t -> 'a) -> ('a, error) result
(** [decode snap ~kind read] checks the kind tag then runs [read] on
    the payload, converting [Codec.Corrupt] into [Bad_payload] and
    enforcing that [read] consumes the payload exactly. *)

val mix64 : int64 -> int64
(** One splitmix64 finalizer round: a bijective avalanche mix. The
    mixer behind {!fingerprint}, shared by every seeded stream (fault
    plans, fuzz instances, out-of-core weights) so they all draw from
    one generator. *)

val fingerprint : Ivc_grid.Stencil.t -> int64
(** Deterministic structural fingerprint (dims + weights) embedded in
    every solver payload, so a snapshot can never be resumed against a
    different instance. *)
