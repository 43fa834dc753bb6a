(** Deadline-bounded capped exponential backoff for maintenance-path IO.

    Distinct from the spin-loop [Primitives.Backoff]: this policy sleeps
    real time between attempts at storage operations. Both the
    clock ([now]) and [sleep] are injectable so tests can run it under a
    fake clock deterministically.

    Only {!Env.Error} is retried. {!Env.Crashed} and all other
    exceptions propagate on first occurrence. *)

type t = {
  max_attempts : int;  (** total attempts, including the first; >= 1 *)
  initial_delay : float;  (** seconds before the second attempt *)
  max_delay : float;  (** per-attempt delay cap, seconds *)
  multiplier : float;  (** exponential growth factor *)
  jitter : float;
      (** symmetric jitter fraction in [0,1]: each delay is scaled by a
          deterministic factor in [1-jitter, 1+jitter] derived from the
          attempt number *)
  deadline : float option;
      (** give up (re-raise) once elapsed-plus-next-delay would exceed
          this many seconds since the first attempt *)
  sleep : float -> unit;
  now : unit -> float;
}

val default : t
(** 5 attempts, 5ms initial, x2 growth, 100ms cap, 20% jitter, 2s
    deadline, real [Unix.sleepf] and the monotonic
    {!Clsm_util.Time_ns.now_s}. *)

val none : t
(** Single attempt — retries disabled. *)

val delay_for : t -> attempt:int -> float
(** The (deterministic) delay that follows failed attempt [attempt]
    (1-based). *)

val run :
  t -> ?on_retry:(attempt:int -> delay:float -> exn -> unit) -> (unit -> 'a) -> 'a
(** [run t f] calls [f] up to [t.max_attempts] times, sleeping between
    attempts, while [f] raises {!Env.Error} and the deadline allows
    another try. [on_retry] fires before each sleep (e.g. to bump a
    stats counter). The last exception is re-raised on exhaustion. *)
