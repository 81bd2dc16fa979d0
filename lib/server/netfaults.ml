(* Seeded socket-level chaos: a TCP/Unix proxy that forwards bytes
   between a client and the real daemon while injecting the faults a
   production network actually produces — latency spikes, torn frames
   (a body split across two writes with a pause between), mid-stream
   resets, long stalls, and corrupted bytes. Decisions are a pure
   function of (plan seed, stream id, chunk index), so a failing
   campaign replays byte-for-byte from its seed, the same discipline
   as Ivc_resilient.Faults.

   Corruption note: [dup] rewrites the first bytes of a chunk rather
   than inserting extras. Insertion would desynchronize *both* plan
   replay and the length-prefixed framing in a trivially detectable
   way; an in-place rewrite is the nastier fault — the frame length
   still matches, only the payload lies — which is exactly what the
   client-side re-certification has to catch. *)

module Faults = Ivc_resilient.Faults
module Snapshot = Ivc_persist.Snapshot
module Obs = Ivc_obs

let c_delay = Obs.Counter.make "netfaults.injected_delay"
let c_tear = Obs.Counter.make "netfaults.injected_tear"
let c_reset = Obs.Counter.make "netfaults.injected_reset"
let c_stall = Obs.Counter.make "netfaults.injected_stall"
let c_dup = Obs.Counter.make "netfaults.injected_corrupt"

type plan = {
  seed : int;
  delay : float;
  delay_s : float;
  tear : float;
  reset : float;
  stall : float;
  stall_s : float;
  dup : float;
}

let none =
  {
    seed = 0;
    delay = 0.0;
    delay_s = 0.0;
    tear = 0.0;
    reset = 0.0;
    stall = 0.0;
    stall_s = 0.0;
    dup = 0.0;
  }

let is_none p =
  p.delay = 0.0 && p.tear = 0.0 && p.reset = 0.0 && p.stall = 0.0
  && p.dup = 0.0

let parse spec =
  let bad what = invalid_arg ("Netfaults.parse: " ^ what ^ " in " ^ spec) in
  let prob what s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> p
    | _ -> bad ("bad probability for " ^ what)
  in
  let timed what v =
    match String.index_opt v ':' with
    | None -> bad (what ^ " needs P:SECONDS")
    | Some j -> (
        let p = String.sub v 0 j in
        let s = String.sub v (j + 1) (String.length v - j - 1) in
        match float_of_string_opt s with
        | Some secs when secs >= 0.0 -> (prob what p, secs)
        | _ -> bad ("bad " ^ what ^ " seconds"))
  in
  List.fold_left
    (fun plan field ->
      let field = String.trim field in
      if field = "" then plan
      else
        match String.index_opt field '=' with
        | None -> bad ("field without '=': " ^ field)
        | Some i -> (
            let key = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            match key with
            | "seed" -> (
                match int_of_string_opt v with
                | Some s -> { plan with seed = s }
                | None -> bad "bad seed")
            | "tear" -> { plan with tear = prob "tear" v }
            | "reset" -> { plan with reset = prob "reset" v }
            | "dup" -> { plan with dup = prob "dup" v }
            | "delay" ->
                let delay, delay_s = timed "delay" v in
                { plan with delay; delay_s }
            | "stall" ->
                let stall, stall_s = timed "stall" v in
                { plan with stall; stall_s }
            | _ -> bad ("unknown field " ^ key)))
    none
    (String.split_on_char ',' spec)

let to_string p =
  Printf.sprintf "seed=%d,delay=%g:%g,tear=%g,reset=%g,stall=%g:%g,dup=%g"
    p.seed p.delay p.delay_s p.tear p.reset p.stall p.stall_s p.dup

type kind = Delay of float | Tear | Reset | Stall of float | Corrupt

(* Uniform draw from (seed, stream, chunk): one splitmix64 finalizer
   per mixed-in value, same construction as Faults.u01. *)
let u01 p ~stream ~chunk =
  let z = Faults.key_of_seed p.seed in
  let z = Snapshot.mix64 (Int64.logxor z (Int64.of_int ((stream * 2) + 1))) in
  let z =
    Snapshot.mix64 (Int64.logxor z (Int64.of_int ((chunk * 0x51ed) + 1)))
  in
  let bits = Int64.to_int (Int64.shift_right_logical z 11) in
  Float.of_int bits /. 9007199254740992.0 (* 2^53 *)

let decide p ~stream ~chunk =
  if is_none p then None
  else
    let u = u01 p ~stream ~chunk in
    if u < p.reset then Some Reset
    else if u < p.reset +. p.tear then Some Tear
    else if u < p.reset +. p.tear +. p.dup then Some Corrupt
    else if u < p.reset +. p.tear +. p.dup +. p.stall then
      Some (Stall p.stall_s)
    else if u < p.reset +. p.tear +. p.dup +. p.stall +. p.delay then
      Some (Delay p.delay_s)
    else None

(* ---- the proxy ------------------------------------------------------- *)

type link = {
  down : Unix.file_descr; (* client side *)
  up : Unix.file_descr; (* daemon side *)
  mutable live_pumps : int;
  mutable closed : bool;
}

type t = {
  plan : plan;
  listen_fd : Unix.file_descr;
  bound_port : int;
  upstream : Server.addr;
  state : Mutex.t;
  mutable stopping : bool;
  mutable links : link list;
  mutable pumps : Thread.t list;
  mutable acceptor : Thread.t option;
  mutable next_conn : int;
}

let close_link t link =
  Mutex.lock t.state;
  if not link.closed then begin
    link.closed <- true;
    (try Unix.close link.down with Unix.Unix_error _ -> ());
    try Unix.close link.up with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.state

(* Reset and stop must NOT close the fds out from under the pump
   threads: a close does not wake a thread blocked in read(2) on the
   same descriptor, and the freed number can be recycled into the
   next accepted link — the zombie read would then steal bytes that
   belong to a different connection, silently starving its client.
   Shutdown wakes both readers with EOF without freeing the numbers;
   the last pump out performs the real close. *)
let shutdown_link t link =
  Mutex.lock t.state;
  if not link.closed then
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      [ link.down; link.up ];
  Mutex.unlock t.state

(* One pump exiting half-closes its direction; the last one out closes
   the pair for real. *)
let pump_done t link =
  Mutex.lock t.state;
  link.live_pumps <- link.live_pumps - 1;
  let last = link.live_pumps = 0 in
  Mutex.unlock t.state;
  if last then close_link t link

let rec write_chunk dst buf off len =
  if len > 0 then begin
    let n = Unix.write dst buf off len in
    write_chunk dst buf (off + n) (len - n)
  end

let pump t link ~stream src dst =
  let buf = Bytes.create 4096 in
  let forward ?(tear = false) n =
    if tear && n > 1 then begin
      let half = n / 2 in
      write_chunk dst buf 0 half;
      Thread.delay 0.005;
      write_chunk dst buf half (n - half)
    end
    else write_chunk dst buf 0 n
  in
  let rec loop chunk =
    match Unix.read src buf 0 4096 with
    | exception Unix.Unix_error _ -> ()
    | 0 -> (
        try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
    | n -> (
        match decide t.plan ~stream ~chunk with
        | exception _ -> ()
        | None ->
            forward n;
            loop (chunk + 1)
        | Some (Delay s) ->
            Obs.Counter.incr c_delay;
            Thread.delay s;
            forward n;
            loop (chunk + 1)
        | Some (Stall s) ->
            Obs.Counter.incr c_stall;
            Thread.delay s;
            forward n;
            loop (chunk + 1)
        | Some Tear ->
            Obs.Counter.incr c_tear;
            forward ~tear:true n;
            loop (chunk + 1)
        | Some Corrupt ->
            Obs.Counter.incr c_dup;
            (* flip bits in the first bytes; length is preserved *)
            for i = 0 to min (n - 1) 7 do
              Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0x5a))
            done;
            forward n;
            loop (chunk + 1)
        | Some Reset ->
            Obs.Counter.incr c_reset;
            shutdown_link t link)
  in
  (try loop 0 with Unix.Unix_error _ | Sys_error _ -> ());
  (* propagate the end of this direction no matter how the loop ended:
     a pump dying on a syscall error must not leave its peers waiting
     on bytes that will never flow (the EOF branch's shutdown repeats
     harmlessly — the second call raises and is swallowed) *)
  (try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  pump_done t link

let connect_upstream = function
  | Server.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
  | Server.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | down, _ ->
        Mutex.lock t.state;
        let stopping = t.stopping in
        let conn = t.next_conn in
        t.next_conn <- conn + 1;
        Mutex.unlock t.state;
        if stopping then (
          (try Unix.close down with Unix.Unix_error _ -> ());
          ())
        else begin
          (match connect_upstream t.upstream with
          | exception (Unix.Unix_error _ | Not_found) -> (
              try Unix.close down with Unix.Unix_error _ -> ())
          | up ->
              let link = { down; up; live_pumps = 2; closed = false } in
              (* distinct streams per direction keep the seeded
                 decisions independent *)
              let p1 =
                Thread.create
                  (fun () -> pump t link ~stream:(conn * 2) down up)
                  ()
              in
              let p2 =
                Thread.create
                  (fun () -> pump t link ~stream:((conn * 2) + 1) up down)
                  ()
              in
              Mutex.lock t.state;
              t.links <- link :: List.filter (fun l -> not l.closed) t.links;
              t.pumps <- p1 :: p2 :: t.pumps;
              Mutex.unlock t.state);
          loop ()
        end
  in
  loop ()

(* The pumps write into sockets their peers may close at any moment —
   that is the business model — so a write after a peer close must
   surface as EPIPE (caught per pump), never as a process kill. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let start ~listen ~upstream ~plan =
  Lazy.force ignore_sigpipe;
  let listen_fd, bound_port = Server.bind_listen listen in
  let t =
    {
      plan;
      listen_fd;
      bound_port;
      upstream;
      state = Mutex.create ();
      stopping = false;
      links = [];
      pumps = [];
      acceptor = None;
      next_conn = 0;
    }
  in
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let port t = t.bound_port

let stop t =
  Mutex.lock t.state;
  let fresh = not t.stopping in
  t.stopping <- true;
  let links = t.links in
  let pumps = t.pumps in
  Mutex.unlock t.state;
  if fresh then begin
    (* poke the acceptor out of accept(2), then close the listener *)
    (try
       let fd =
         match Unix.getsockname t.listen_fd with
         | Unix.ADDR_UNIX path ->
             let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             Unix.connect fd (Unix.ADDR_UNIX path);
             fd
         | Unix.ADDR_INET (_, _) ->
             let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
             Unix.connect fd
               (Unix.ADDR_INET (Unix.inet_addr_loopback, t.bound_port));
             fd
       in
       Unix.close fd
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    List.iter (shutdown_link t) links;
    List.iter Thread.join pumps;
    List.iter (close_link t) links
  end
