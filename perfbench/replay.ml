(* After-window replays through the layer functions, in this process:
   the wire codecs on what was received, the journal on what the daemon
   journaled, with the daemon's segment size and fsync on. *)

module Proto = Ivc_server.Proto
module Wal = Ivc_persist.Wal
module Stats = Perfbench.Stats
module R = Result_doc
open Proc

type wire = {
  reply_kb : float;
  encode_reply_ms : float;
  decode_reply_ms : float;
  encode_request_ms : float;
  decode_request_ms : float;
}

let max_samples = 512

(* An even sample of at most [max_samples] elements. *)
let sample l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= max_samples then a else Array.init max_samples (fun i -> a.(i * n / max_samples))

let mean_ms thunks =
  Stats.mean (Array.map (fun f -> 1e3 *. snd (time f)) (sample thunks))

(* [pairs] are (request sent, solution received). *)
let wire pairs =
  let pairs = sample pairs in
  let each f = Stats.mean (Array.map f pairs) in
  let reply (_, s) = Proto.encode_response (Proto.Solution s) in
  let ms f = 1e3 *. snd (time f) in
  {
    reply_kb = each (fun p -> Float.of_int (String.length (reply p)) /. 1024.0);
    encode_reply_ms = each (fun p -> ms (fun () -> ignore (reply p)));
    decode_reply_ms =
      each (fun p ->
          let b = reply p in
          ms (fun () -> ignore (Proto.decode_response b)));
    encode_request_ms = each (fun (q, _) -> ms (fun () -> ignore (Proto.encode_request q)));
    decode_request_ms =
      each (fun (q, _) ->
          let b = Proto.encode_request q in
          ms (fun () -> ignore (Proto.decode_request b)));
  }

let set_wire r w =
  R.set r "proto.reply_kb" w.reply_kb;
  R.set r "proto.encode_reply_ms" w.encode_reply_ms;
  R.set r "proto.decode_reply_ms" w.decode_reply_ms;
  R.set r "proto.encode_request_ms" w.encode_request_ms;
  R.set r "proto.decode_request_ms" w.decode_request_ms

(* Codec time outside the daemon's request span, on both sides. *)
let wire_total_ms w =
  w.encode_reply_ms +. w.decode_reply_ms +. w.encode_request_ms +. w.decode_request_ms

let solved_op inst (s : Proto.solution) =
  Proto.encode_op
    (Proto.Op_solved
       {
         fp = s.Proto.fingerprint;
         inst;
         starts = s.Proto.starts;
         maxcolor = s.Proto.maxcolor;
         lower_bound = s.Proto.lower_bound;
         provenance = s.Proto.provenance;
         proven_optimal = s.Proto.proven_optimal;
       })

(* The daemon's default segment size. *)
let segment_bytes = 1 lsl 20

let wal r ~dir payloads =
  rm_rf dir;
  let w, _ = Wal.open_log ~segment_bytes ~fsync:true ~dir (fun _ _ -> ()) in
  let times =
    Fun.protect
      ~finally:(fun () -> Wal.close w)
      (fun () ->
        Array.of_list
          (List.map (fun p -> 1e3 *. snd (time (fun () -> ignore (Wal.append w p)))) payloads))
  in
  rm_rf dir;
  if times <> [||] then begin
    R.set r "wal.append_p50_ms" (Stats.percentile times 0.5).Stats.value;
    R.set r "wal.append_p99_ms" (Stats.percentile times 0.99).Stats.value;
    R.set r "wal.op_kb"
      (Stats.mean (Array.of_list (List.map (fun p -> Float.of_int (String.length p) /. 1024.0) payloads)))
  end
