(** Event-driven maintenance scheduler with no idle domain.

    The store calls {!wake} on every change that can create or unblock
    work (a memtable over its threshold, a rotation, a stall, an
    install, a released claim, a degradation). A worker domain exists
    only while there is work: a wake that finds a job claimable, fewer
    than [num_workers] workers running and none of them idle claims the
    job itself, through [next], and spawns a domain to run it. That
    domain keeps claiming until [next] finds nothing, waits up to
    [linger] seconds for a wake, then exits. A wake with nothing
    claimable spawns nothing; with every slot taken, or a worker idle,
    it only advances the wakeup generation, which the workers re-check
    before they wait or leave (the handshake is stated in
    [scheduler.ml]).

    Parked domains are not free on OCaml 5: every minor collection stops
    every domain, and one parked in [Condition.wait] must still be
    scheduled before the collection proceeds. Nor are domains spawned
    per job: churning them slows the major GC. So a worker lingers a
    second after its last job, and past that the pool keeps at most one
    domain, only for work that falls due with time (the next scrub pass,
    a damped repair retry): when nothing is runnable, [next] reports the
    earliest due time, and the first worker past its linger to see it
    waits for it on the scheduler's {!Clsm_primitives.Wakeup} with a
    deadline, which a wake also ends. With no due time, an idle store
    runs no maintenance domain at all.

    The scheduler owns no job queue: [next] claims and returns the
    highest-priority runnable job under the caller's own bookkeeping,
    and [run] executes it and releases the claim. This keeps claim state
    (which levels are busy, whether a flush is in flight) next to the
    store where its invariants live, while the scheduler provides
    wakeup, parallelism and lifecycle.

    A job runs whole on the domain that claimed it, or that its waker
    spawned for it: one compaction is one merge on one domain.
    Parallelism comes only from up to [num_workers] workers running jobs
    on disjoint claims (e.g. compactions of disjoint level ranges). *)

type 'job t
(** A pool running jobs of type ['job]: a single store runs {!Job.t}, a
    shard router runs [(shard, Job.t)] pairs. *)

(** What [next] found. *)
type 'job work =
  | Run of 'job  (** a job, claimed: it must be run *)
  | Due of float
      (** nothing runnable before this time (seconds on
          {!Clsm_util.Time_ns.now_s}'s clock), unless a {!wake} comes
          first *)
  | Idle  (** nothing runnable until a {!wake} *)

val create :
  ?num_workers:int ->
  ?linger:float ->
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  pp:(Format.formatter -> 'job -> unit) ->
  next:(unit -> 'job work) ->
  run:('job -> unit) ->
  spawn_failed:(exn -> 'job option -> unit) ->
  unit ->
  'job t
(** [num_workers] (default [2]) bounds the worker domains alive at once.
    [linger] (default [1.0]) is the seconds a worker that finds nothing
    runnable waits for a wake before it exits. [next] must be
    thread-safe and claim the job it returns; it is called by workers
    and by wakers. [run] must release the claim even on failure
    (exceptions escaping [run] are caught and logged, naming the job
    with [pp]). [spawn] (default [Domain.spawn]) starts a worker domain.
    When it raises, [spawn_failed] is called on the waker's domain with
    the exception and the job claimed for the domain, if any, whose
    claim it must release; spawning then pauses for a second, so a wake
    it causes spawns nothing. No domain is spawned here. *)

val start : _ t -> unit
(** A first {!wake}: claims what is already runnable (work found at
    open), or the first due time. *)

val wake : _ t -> unit
(** Signal that work may exist. Safe from any domain, workers included.
    Cheap when every slot is taken or a worker is idle: one generation
    advance and one short critical section. Otherwise it also calls
    [next], and spawns a domain only for a claimed job or for the first
    due time. After {!stop}, a no-op. *)

val stop : _ t -> unit
(** Ask workers to finish their current job, then wait for every worker
    to leave and join every domain the pool spawned. A worker waiting
    for a wake or a due time leaves at once. Idempotent. After [stop], {!wake} is
    a no-op. *)

val jobs_run : _ t -> int
(** Total jobs executed (for stats and tests). *)

val live_workers : _ t -> int
(** Worker slots held now: domains in the loop, and wakers claiming
    for a domain they are about to spawn (for tests: an idle store with
    nothing due reads 0 once its workers' linger has passed). *)
