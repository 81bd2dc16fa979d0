type kind = Crash | Delay of float | Lost_result

type plan = {
  seed : int;
  crash : float;
  delay : float;
  delay_s : float;
  lost : float;
}

exception Injected of { kind : string; task : int; attempt : int }

let c_crash = Ivc_obs.Counter.make "faults.injected_crash"
let c_delay = Ivc_obs.Counter.make "faults.injected_delay"
let c_lost = Ivc_obs.Counter.make "faults.injected_lost"

let none = { seed = 0; crash = 0.0; delay = 0.0; delay_s = 0.0; lost = 0.0 }
let is_none p = p.crash = 0.0 && p.delay = 0.0 && p.lost = 0.0

let parse spec =
  let bad what = invalid_arg ("Faults.parse: " ^ what ^ " in " ^ spec) in
  let prob what s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> p
    | _ -> bad ("bad probability for " ^ what)
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
            | "crash" -> { plan with crash = prob "crash" v }
            | "lost" -> { plan with lost = prob "lost" v }
            | "delay" -> (
                match String.index_opt v ':' with
                | None -> bad "delay needs P:SECONDS"
                | Some j -> (
                    let p = String.sub v 0 j in
                    let s = String.sub v (j + 1) (String.length v - j - 1) in
                    match float_of_string_opt s with
                    | Some secs when secs >= 0.0 ->
                        { plan with delay = prob "delay" p; delay_s = secs }
                    | _ -> bad "bad delay seconds"))
            | _ -> bad ("unknown field " ^ key)))
    none
    (String.split_on_char ',' spec)

let to_string p =
  Printf.sprintf "seed=%d,crash=%g,delay=%g:%g,lost=%g" p.seed p.crash p.delay
    p.delay_s p.lost

let from_env () =
  match Sys.getenv_opt "IVC_FAULT_PLAN" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> Some (parse s)

let mix64 = Ivc_persist.Snapshot.mix64

(* The high 53 bits of a mix over (seed, ...): a uniform draw in
   [0, 1). *)
let u53 z =
  Float.of_int (Int64.to_int (Int64.shift_right_logical z 11))
  /. 9007199254740992.0 (* 2^53 *)

let key_of_seed seed = mix64 (Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L)

let mix_int ~key i =
  let z = mix64 (Int64.add key (Int64.mul 0xbf58476d1ce4e5b9L (Int64.of_int i))) in
  Int64.to_int (Int64.shift_right_logical z 2)

let u01 plan ~task ~attempt =
  let z = key_of_seed plan.seed in
  let z = mix64 (Int64.logxor z (Int64.of_int task)) in
  u53 (mix64 (Int64.logxor z (Int64.of_int (attempt * 0x51ed + 1))))

let backoff_s ~seed ~base_s ~max_s ~jitter ~attempt =
  let attempt = max 0 attempt in
  let capped = Float.min max_s (base_s *. (2.0 ** Float.of_int attempt)) in
  let z = key_of_seed seed in
  let u = u53 (mix64 (Int64.logxor z (Int64.of_int ((attempt * 2) + 1)))) in
  capped *. (1.0 -. (jitter *. u))

let decide plan ~task ~attempt =
  if is_none plan then None
  else
    let u = u01 plan ~task ~attempt in
    if u < plan.crash then Some Crash
    else if u < plan.crash +. plan.lost then Some Lost_result
    else if u < plan.crash +. plan.lost +. plan.delay then
      Some (Delay plan.delay_s)
    else None

let wrap plan ~n work =
  let attempts = Array.init n (fun _ -> Atomic.make 0) in
  fun v ->
    let a = Atomic.fetch_and_add attempts.(v) 1 in
    match decide plan ~task:v ~attempt:a with
    | None -> work v
    | Some Crash ->
        Ivc_obs.Counter.incr c_crash;
        raise (Injected { kind = "crash"; task = v; attempt = a })
    | Some (Delay s) ->
        Ivc_obs.Counter.incr c_delay;
        if s > 0.0 then Unix.sleepf s;
        work v
    | Some Lost_result ->
        work v;
        Ivc_obs.Counter.incr c_lost;
        raise (Injected { kind = "lost-result"; task = v; attempt = a })
