(* Restart policy of the supervised daemon, kept pure so the state
   machine is unit-testable without forking: the ivc_serve supervisor
   loop feeds (exit status, uptime) in and gets a verdict out.

   Backoff is jittered exponential, deterministic from a seed:
   min(max_backoff, base * 2^streak) scaled down by up to [jitter].
   Determinism matters for the same reason it does in Faults — a
   flapping-daemon incident replays exactly from the logged seed. *)

module Faults = Ivc_resilient.Faults

type config = {
  seed : int;
  base_backoff_s : float;
  max_backoff_s : float;
  jitter : float;
  min_uptime_s : float;
  max_rapid_crashes : int;
}

let default_config =
  {
    seed = 0;
    base_backoff_s = 0.5;
    max_backoff_s = 8.0;
    jitter = 0.5;
    min_uptime_s = 5.0;
    max_rapid_crashes = 5;
  }

type state = { streak : int; restarts : int }

let initial = { streak = 0; restarts = 0 }

type verdict =
  | Stop_clean
  | Restart_after of float
  | Give_up of string

let backoff_s cfg ~attempt =
  Faults.backoff_s ~seed:cfg.seed ~base_s:cfg.base_backoff_s
    ~max_s:cfg.max_backoff_s ~jitter:cfg.jitter ~attempt

let on_exit cfg st ~uptime_s ~(status : Unix.process_status) =
  let deliberate =
    match status with
    | Unix.WEXITED 0 -> true
    | Unix.WSIGNALED s -> s = Sys.sigterm || s = Sys.sigint
    | _ -> false
  in
  if deliberate then (st, Stop_clean)
  else begin
    (* a crash after a healthy run resets the streak: only *rapid*
       crashes count toward the crash-loop verdict *)
    let streak = if uptime_s < cfg.min_uptime_s then st.streak + 1 else 1 in
    if streak > cfg.max_rapid_crashes then
      ( { streak; restarts = st.restarts },
        Give_up
          (Printf.sprintf
             "%d consecutive crashes within %gs of start — refusing to \
              restart a crash loop"
             streak cfg.min_uptime_s) )
    else
      ( { streak; restarts = st.restarts + 1 },
        Restart_after (backoff_s cfg ~attempt:(streak - 1)) )
  end

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
