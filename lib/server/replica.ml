(* The standby's pull loop. One thread, one upstream connection at a
   time: connect, send [Replicate {from_seq = our applied cursor}],
   then pump [Op] / [Repl_heartbeat] frames into the server until the
   stream breaks, and reconnect with the client's jittered backoff.
   The cursor is re-read on every (re)connect, so a stream torn
   mid-burst resumes exactly where the last accepted op left off — the
   primary's feed mirrors its WAL record-for-record, so the cursor
   stays valid across primary restarts too.

   Stopping is cooperative plus a shove: the flag is set and the
   in-flight connection shut down, so a recv blocked in select wakes
   to end-of-file instead of waiting for the next heartbeat. Only the
   pump thread closes its connection: a descriptor closed under a
   thread still reading it is reused by the server's next accept, and
   the pump would read that client's request. Promotion uses the same
   path through [Server.set_on_promote] — a promoted standby must
   never keep applying ops from the primary it just replaced. *)

module Obs = Ivc_obs

let c_sessions = Obs.Counter.make "replica.sessions"
let c_stream_errors = Obs.Counter.make "replica.stream_errors"

type t = {
  srv : Server.t;
  upstream : Server.addr;
  retry : Client.retry;
  recv_timeout_s : float;
  m : Mutex.t;
  mutable conn : Client.t option;
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let stopping t =
  Mutex.lock t.m;
  let s = t.stopping in
  Mutex.unlock t.m;
  s

(* Publish the live connection so [detach] can shove it; refuse when a
   stop already won the race. *)
let set_conn t c =
  Mutex.lock t.m;
  let accepted = not t.stopping in
  if accepted then t.conn <- Some c;
  Mutex.unlock t.m;
  if not accepted then Client.close c;
  accepted

let clear_conn t =
  Mutex.lock t.m;
  let c = t.conn in
  t.conn <- None;
  Mutex.unlock t.m;
  match c with Some c -> Client.close c | None -> ()

(* Under the lock: [clear_conn] unpublishes before it closes, so the
   connection shut down here is still open. *)
let detach t =
  Mutex.lock t.m;
  t.stopping <- true;
  Option.iter Client.interrupt t.conn;
  Mutex.unlock t.m

let run t =
  let failures = ref 0 in
  while not (stopping t) do
    if !failures > 0 then
      Thread.delay (Client.retry_delay_s t.retry ~attempt:(min (!failures - 1) 6));
    match Client.connect ~timeout_s:t.retry.Client.connect_timeout_s t.upstream with
    | Error _ -> incr failures
    | Ok c ->
        if set_conn t c then begin
          (match
             Client.send c
               (Proto.Replicate { from_seq = Server.repl_applied t.srv })
           with
          | Error _ -> incr failures
          | Ok () ->
              Obs.Counter.incr c_sessions;
              let live = ref true in
              while !live && not (stopping t) do
                match Client.recv ~idle_timeout_s:t.recv_timeout_s c with
                | Ok (Proto.Op { seq; head; payload }) -> (
                    Server.note_primary_contact t.srv ~head;
                    match Server.apply_replicated t.srv ~seq payload with
                    | Ok () -> failures := 0
                    | Error _ ->
                        (* cursor desync or an undecodable op: drop the
                           stream and renegotiate from our cursor *)
                        Obs.Counter.incr c_stream_errors;
                        live := false)
                | Ok (Proto.Repl_heartbeat { head }) ->
                    Server.note_primary_contact t.srv ~head;
                    failures := 0
                | Ok _ | Error _ ->
                    Obs.Counter.incr c_stream_errors;
                    live := false
              done);
          clear_conn t;
          incr failures
        end
  done;
  clear_conn t

let start ?(retry = Client.default_retry) ?(recv_timeout_s = 15.0) srv
    ~upstream =
  let t =
    {
      srv;
      upstream;
      retry;
      recv_timeout_s;
      m = Mutex.create ();
      conn = None;
      stopping = false;
      thread = None;
    }
  in
  Server.set_on_promote srv (fun () -> detach t);
  t.thread <- Some (Thread.create run t);
  t

let stop t =
  detach t;
  match t.thread with
  | Some th ->
      t.thread <- None;
      Thread.join th
  | None -> ()
