(* Process plumbing: peak memory, the daemon under test, its Stats
   document, and timing helpers. *)

module Client = Ivc_server.Client
module Server = Ivc_server.Server
module Proto = Ivc_server.Proto
module Json = Ivc_obs.Json

let now = Ivc_obs.now_ns
let since t0 = Ivc_obs.elapsed_s ~since:t0

let time f =
  let t0 = now () in
  let v = f () in
  (v, since t0)

(* Median wall time of [k] runs of a set-up step, keeping the last
   result. *)
let setup_median ?(k = 3) f =
  let times = Array.make k 0.0 and last = ref None in
  for i = 0 to k - 1 do
    Gc.full_major ();
    let v, dt = time f in
    times.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, Perfbench.Stats.median times)

(* Reset this process's VmHWM to its current RSS (Linux "clear_refs"
   code 5), so a phase's peak can be read on its own. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ())

(* A 63-bit fingerprint of a coloring, to recognise it later without
   keeping the array. *)
let starts_fp starts =
  Array.fold_left (fun h s -> (h * 0x100000001b3) lxor (s + 1)) 0xcbf29ce4 starts

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The benchmark's own span around a call into a layer, recorded by
   [Ivc_obs] (so only in the traced pass, which enables it) next to the
   program's spans; [req] is the request or operation id. *)
let span ?req name f =
  let args = match req with Some r -> [ ("req", string_of_int r) ] | None -> [] in
  Ivc_obs.Span.record ~cat:"bench" ~args ("bench." ^ name) f

(* ---- the daemon ------------------------------------------------------- *)

type daemon = { pid : int; addr : Server.addr }

let connect_exn addr =
  match Client.connect ~timeout_s:5.0 addr with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Client.error_to_string e)

let reap pid =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 1000

(* Start [ivc_serve] with default workers, queue, cache and repair-table
   capacities, journaling to a fresh fsynced WAL, on a Unix socket under
   [work]; returns once a Health probe answers ready. *)
let spawn_daemon ~bin ~work ~tag =
  let sock = Filename.concat work (tag ^ ".sock") in
  let wal = Filename.concat work (tag ^ "-wal") in
  rm_rf wal;
  (try Sys.remove sock with Sys_error _ -> ());
  let logf =
    Unix.openfile
      (Filename.concat work (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close logf)
      (fun () ->
        Unix.create_process bin
          [| bin; "--socket"; sock; "--wal-dir"; wal |]
          Unix.stdin logf logf)
  in
  let addr = Server.Unix_sock sock in
  let t0 = now () in
  let rec ready () =
    if since t0 > 30.0 then begin
      reap pid;
      failwith "daemon not ready after 30 s"
    end;
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited during start-up");
    let ok =
      Sys.file_exists sock
      &&
      match Client.connect ~timeout_s:1.0 addr with
      | Error _ -> false
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.health ~timeout_s:2.0 c with
              | Ok h -> h.Proto.ready
              | Error _ -> false)
    in
    if not ok then begin
      Unix.sleepf 0.005;
      ready ()
    end
  in
  ready ();
  { pid; addr }

let stop_daemon d =
  (match Client.connect ~timeout_s:2.0 d.addr with
  | Ok c ->
      ignore (Client.shutdown ~timeout_s:5.0 c);
      Client.close c
  | Error _ -> ());
  reap d.pid

let daemon_rss_mb d = peak_rss_mb (string_of_int d.pid)

(* ---- Stats documents -------------------------------------------------- *)

let stats d =
  let c = connect_exn d.addr in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.stats ~timeout_s:30.0 c with
      | Ok s -> Json.parse s
      | Error e -> failwith ("stats: " ^ Client.error_to_string e))

let dig doc path =
  let rec go v = function
    | [] -> ( try Json.to_float v with Failure _ -> 0.0)
    | k :: rest -> ( match Json.member k v with Some v -> go v rest | None -> 0.0)
  in
  go doc path

(* This process's own obs document, shaped like a Stats reply. *)
let local_stats () = Json.Obj [ ("metrics", Ivc_obs.Export.metrics ()) ]

let counter doc name = dig doc [ "metrics"; "counters"; name ]
let span_count doc name = dig doc [ "metrics"; "spans"; name; "count" ]
let span_total_ms doc name = dig doc [ "metrics"; "spans"; name; "total_ms" ]

(* Spans the document's process retains, over every span name. *)
let obs_events doc =
  match Json.member "metrics" doc with
  | None -> 0.0
  | Some m -> (
      match Json.member "spans" m with
      | Some (Json.Obj l) ->
          List.fold_left
            (fun acc (_, v) ->
              acc +. match Json.member "count" v with Some n -> Json.to_float n | None -> 0.0)
            0.0 l
      | _ -> 0.0)

(* Window deltas between two Stats documents. *)
let d_counter a b name = counter b name -. counter a name

let d_span_mean_ms a b name =
  let n = span_count b name -. span_count a name in
  if n <= 0.0 then 0.0 else (span_total_ms b name -. span_total_ms a name) /. n

let d_span_total_s a b name = (span_total_ms b name -. span_total_ms a name) /. 1e3

(* ---- a run ------------------------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;  (** this pass records spans and per-layer numbers *)
  work : string;  (** scratch directory inside the checkout *)
  serve_bin : string;
}

(* Solve options of a serving client: a 200-node exact budget, no
   improvement stage, and a deadline far above any solve of these
   inputs. *)
let serving_opts =
  {
    Proto.deadline_s = Some 60.0;
    priority = 10;
    budget = Some 200;
    improve = false;
    use_cache = true;
  }
