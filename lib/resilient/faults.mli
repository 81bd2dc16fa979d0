(** Seeded, deterministic fault injection for the parallel layers.

    A {!plan} assigns every (task, attempt) pair an independent,
    reproducible fault decision — crash before execution, a fixed
    delay, or a lost result (the task runs, then its completion is
    discarded) — by hashing [(seed, task, attempt)] with a splitmix64
    finalizer. Determinism is the point: a failing CI run replays
    exactly with the same plan string, and retries see fresh decisions
    (the attempt number is part of the hash) so bounded-retry recovery
    terminates with overwhelming probability.

    Plan syntax (also accepted from the [IVC_FAULT_PLAN] environment
    variable):

    {v seed=7,crash=0.25,delay=0.05:0.002,lost=0.1 v}

    where [crash]/[lost] are probabilities and [delay=P:S] injects a
    delay of [S] seconds with probability [P]. Omitted fields default
    to 0 (no injection). *)

type kind =
  | Crash  (** raise {!Injected} before the task body runs *)
  | Delay of float  (** sleep that many seconds, then run normally *)
  | Lost_result
      (** run the task body, then raise {!Injected} — the work happened
          but its completion is lost, as with a worker dying after
          finishing. Only inject this on idempotent tasks: recovery
          re-executes them. *)

type plan = {
  seed : int;
  crash : float;
  delay : float;
  delay_s : float;
  lost : float;
}

(** Raised by injected faults; carries enough context to correlate a
    failure with the plan that caused it. *)
exception Injected of { kind : string; task : int; attempt : int }

(** The empty plan: injects nothing. *)
val none : plan

val is_none : plan -> bool

(** Parse the plan syntax above. Raises [Invalid_argument] on junk. *)
val parse : string -> plan

val to_string : plan -> string

(** The plan in [IVC_FAULT_PLAN], if the variable is set and
    non-empty. *)
val from_env : unit -> plan option

(** The deterministic fault decision for one execution attempt
    (attempts count from 0). *)
val decide : plan -> task:int -> attempt:int -> kind option

(** {1 The underlying PRNG}

    Counter-mode streams over {!Ivc_persist.Snapshot.mix64}, the
    splitmix64 finalizer behind every fault decision. Exported so other
    deterministic tooling (the [Ivc_check] fuzzer's instance streams,
    network fault plans, retry and restart jitter) draws from the same
    generator instead of growing a second one. *)

(** [mix_int ~key i] hashes [(key, i)] to a non-negative 62-bit int;
    deterministic, uniform, and cheap — the counter-mode building
    block for seeded streams. *)
val mix_int : key:int64 -> int -> int

(** [key_of_seed seed] spreads a small user seed into a full 64-bit
    stream key (one golden-ratio increment plus a mix round). *)
val key_of_seed : int -> int64

(** [backoff_s ~seed ~base_s ~max_s ~jitter ~attempt] is the jittered
    exponential delay before re-attempt [attempt] (0-based):
    [min max_s (base_s * 2^attempt)] scaled down by up to [jitter],
    deterministic in (seed, attempt). The client's retry schedule and
    the supervisor's restart schedule are both this function. *)
val backoff_s :
  seed:int -> base_s:float -> max_s:float -> jitter:float -> attempt:int -> float

(** [wrap plan ~n work] wraps a pool work function over tasks
    [0 .. n-1]: each call consumes one attempt for its task (attempt
    counts are kept internally, atomically — safe from any domain) and
    applies the plan's decision. Crash faults raise before [work] runs;
    lost-result faults raise after. Injections are counted via
    [faults.injected_*] counters. *)
val wrap : plan -> n:int -> (int -> unit) -> int -> unit
