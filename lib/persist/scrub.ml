(* Background bit-rot detection over the persist layer's on-disk
   state: snapshots (solve checkpoints, spill tiles) and sealed WAL
   segments all carry CRCs, so a scrub pass is just "read everything
   back through the same fail-closed readers and act on what fails".

   Policy: a corrupt file is moved into a [quarantine/] subdirectory
   (never deleted — it is evidence), and a WAL segment whose damage
   left a valid prefix gets that prefix re-derived in place via the
   usual tmp-then-rename atomic install. Active [.open] WAL segments
   and [.tmp] install staging files belong to live writers and are
   skipped: scrubbing under a writer would manufacture the very
   corruption this pass exists to catch. *)

let c_scanned = Ivc_obs.Counter.make "scrub.files_scanned"
let c_quarantined = Ivc_obs.Counter.make "scrub.files_quarantined"
let c_repaired = Ivc_obs.Counter.make "scrub.files_repaired"

type report = {
  scanned : int;
  ok : int;
  quarantined : int;
  repaired : int;
  skipped : int;
}

let empty = { scanned = 0; ok = 0; quarantined = 0; repaired = 0; skipped = 0 }

let report_to_string r =
  Printf.sprintf "scanned %d: %d ok, %d quarantined, %d repaired, %d skipped"
    r.scanned r.ok r.quarantined r.repaired r.skipped

let quarantine_subdir = "quarantine"

let quarantine ~qdir path =
  if not (Sys.file_exists qdir) then Unix.mkdir qdir 0o755;
  (* keep the name unique if the same file rots twice across restarts *)
  let base = Filename.basename path in
  let dest = Filename.concat qdir base in
  let dest =
    if Sys.file_exists dest then
      Filename.concat qdir (Printf.sprintf "%s.%d" base (Unix.getpid ()))
    else dest
  in
  Unix.rename path dest;
  Ivc_obs.Counter.incr c_quarantined

let scrub_one ~qdir path =
  let name = Filename.basename path in
  if Filename.check_suffix name ".snap" then
    match Snapshot.load path with
    | Ok _ -> `Ok
    | Error _ ->
        quarantine ~qdir path;
        `Quarantined
  else if Wal.is_segment name then
    match Wal.verify_file path with
    | `Ok _ -> `Ok
    | `Damaged (_, valid_bytes) ->
        let contents =
          try Wal.read_file path with Sys_error _ | End_of_file -> ""
        in
        quarantine ~qdir path;
        if valid_bytes > 0 && valid_bytes <= String.length contents then begin
          (* re-derive the valid prefix through the atomic install:
             never a half-rewritten segment, and the directory sync
             makes the rename survive a power cut *)
          Snapshot.install path (String.sub contents 0 valid_bytes);
          Ivc_obs.Counter.incr c_repaired;
          `Repaired
        end
        else `Quarantined
  else `Skipped

let run ?quarantine_dir ~dirs () =
  List.fold_left
    (fun acc dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then acc
      else begin
        let qdir =
          match quarantine_dir with
          | Some q -> q
          | None -> Filename.concat dir quarantine_subdir
        in
        Array.fold_left
          (fun acc name ->
            let path = Filename.concat dir name in
            if Sys.is_directory path then acc
            else begin
              Ivc_obs.Counter.incr c_scanned;
              match scrub_one ~qdir path with
              | `Ok -> { acc with scanned = acc.scanned + 1; ok = acc.ok + 1 }
              | `Quarantined ->
                  {
                    acc with
                    scanned = acc.scanned + 1;
                    quarantined = acc.quarantined + 1;
                  }
              | `Repaired ->
                  (* the original was quarantined, its prefix installed *)
                  {
                    acc with
                    scanned = acc.scanned + 1;
                    quarantined = acc.quarantined + 1;
                    repaired = acc.repaired + 1;
                  }
              | `Skipped ->
                  { acc with scanned = acc.scanned + 1; skipped = acc.skipped + 1 }
              | exception (Unix.Unix_error _ | Sys_error _) ->
                  (* a file vanishing mid-scrub (writer rotation) is
                     not corruption; count it skipped and move on *)
                  { acc with scanned = acc.scanned + 1; skipped = acc.skipped + 1 }
            end)
          acc
          (try Sys.readdir dir with Sys_error _ -> [||])
      end)
    empty (List.sort_uniq compare dirs)
