(* Deadline-bounded capped exponential backoff for maintenance-path IO.

   This is deliberately distinct from [Primitives.Backoff]: that one is a
   CPU spin/yield loop for lock-free retry on the fast path; this one
   sleeps real time between attempts at disk operations, and
   both the clock and the sleep are injectable so unit tests can drive it
   under a fake clock with zero real delay.

   Only {!Env.Error} is retried: that is the transient-fault class
   (EIO fsync, ENOSPC append, ...). {!Env.Crashed} and every other
   exception propagate immediately — a crash point is a hard stop, and
   corruption/logic errors must never be papered over by retries. *)

type t = {
  max_attempts : int;
  initial_delay : float;
  max_delay : float;
  multiplier : float;
  jitter : float;
  deadline : float option;
  sleep : float -> unit;
  now : unit -> float;
}

let default =
  {
    max_attempts = 5;
    initial_delay = 0.005;
    max_delay = 0.100;
    multiplier = 2.0;
    jitter = 0.2;
    deadline = Some 2.0;
    sleep = Unix.sleepf;
    now = Clsm_util.Time_ns.now_s;
  }

let none =
  { default with max_attempts = 1; deadline = None; sleep = (fun _ -> ()) }

(* Deterministic pseudo-random fraction in [0,1) derived from the attempt
   number alone (Knuth multiplicative hash), so a given policy always
   produces the same delay sequence — reproducible tests, no shared RNG. *)
let jitter_fraction ~attempt =
  float_of_int ((attempt * 2654435761) land 0xFFFF) /. 65536.0

let delay_for t ~attempt =
  if attempt < 1 then invalid_arg "Retry_policy.delay_for: attempt < 1";
  let base =
    t.initial_delay *. (t.multiplier ** float_of_int (attempt - 1))
  in
  let capped = Float.min t.max_delay base in
  let j = Float.max 0.0 (Float.min 1.0 t.jitter) in
  (* symmetric jitter: capped * (1 ± j) *)
  let factor = 1.0 +. (j *. ((2.0 *. jitter_fraction ~attempt) -. 1.0)) in
  Float.max 0.0 (capped *. factor)

let run t ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) f =
  let start = t.now () in
  let deadline_exceeded ~after_delay =
    match t.deadline with
    | None -> false
    | Some d -> t.now () -. start +. after_delay > d
  in
  let rec go attempt =
    match f () with
    | v -> v
    | exception (Env.Error _ as e) ->
        if attempt >= t.max_attempts then raise e;
        let delay = delay_for t ~attempt in
        if deadline_exceeded ~after_delay:delay then raise e;
        on_retry ~attempt ~delay e;
        if delay > 0.0 then t.sleep delay;
        go (attempt + 1)
  in
  go 1
