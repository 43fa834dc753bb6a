(** Missed-wakeup-safe notification cell (Mutex + Condition + generation).

    The classic condition-variable pitfall is the lost wakeup: a waiter
    checks for work, finds none, and blocks just as a producer signals.
    This cell closes the window with a generation counter incremented
    under the mutex by every {!signal}: a waiter reads {!current}, then
    re-checks for work, then calls [wait ~seen]; any signal issued after
    the [current] read makes the wait return immediately.

    Intended pattern (the maintenance scheduler's worker loop):
    {[
      let rec loop seen =
        match find_work () with
        | Some w -> do_work w; loop (Wakeup.current cell)
        | None -> loop (Wakeup.wait cell ~seen)
      in
      loop (Wakeup.current cell)
    ]}

    {!wait_until} is a wait bounded by a deadline, for the maintenance
    scheduler's workers: one lingering before it exits, or one waiting
    for work that falls due with time (the next scrub pass or repair
    retry). *)

type t

val create : unit -> t

val current : t -> int
(** The generation now. Read it {e before} checking for work. *)

val signal : t -> unit
(** Advance the generation and wake every waiter. Cheap when nobody
    waits (one uncontended mutex section). *)

val wait : t -> seen:int -> int
(** Block until the generation differs from [seen]; returns the new
    generation. Returns immediately if it already differs. *)

val wait_until : t -> seen:int -> deadline:float -> int
(** {!wait}, but returning at [deadline] too (seconds on
    {!Clsm_util.Time_ns.now_s}'s clock); the generation returned equals
    [seen] when the deadline came first. The waiter parks in [select] on
    a self-pipe of its own, opened on first need and kept for the next
    deadline waiter: [Condition] has no timed wait. Should no pipe open,
    or [select] refuse one (a descriptor past its limit), the wait
    returns at the next signal only. *)

val close : t -> unit
(** Close the pipes {!wait_until} opened. Call it once no domain can
    wait on the cell again. *)

val waiters : t -> int
(** Instantaneous number of blocked waiters, deadline waiters included
    (for stats and tests). *)
