(** Event-driven maintenance scheduler.

    Replaces the store's sleep-polling background domain with a pool of
    worker domains parked on a {!Clsm_primitives.Wakeup} cell. The store
    calls {!wake} on every change that can create or unblock work (a
    memtable over its threshold, a rotation, a stall, an install, a
    released claim, a degradation), so no work waits on a clock. Only
    work that falls due with time (a scrub pass every [scrub_interval],
    the retry of a failed repair) needs one: a store that has such work
    passes [tick], and a ticker domain then signals every [tick]
    seconds.

    The scheduler owns no job queue: [next] claims and returns the
    highest-priority runnable job under the caller's own bookkeeping,
    and [run] executes it and releases the claim. Workers loop
    [next]/[run] until [next] returns [None], then block on the wakeup
    cell. This keeps claim state (which levels are busy, whether a flush
    is in flight) next to the store where its invariants live, while the
    scheduler provides wakeup, parallelism and lifecycle.

    A job runs whole on the worker that claimed it: one compaction is
    one merge on one domain. Parallelism comes only from [num_workers]
    workers running jobs on disjoint claims (e.g. compactions of
    disjoint level ranges); no job spawns a domain of its own. *)

type 'job t
(** A pool running jobs of type ['job]: a single store runs {!Job.t}, a
    shard router runs [(shard, Job.t)] pairs. *)

val create :
  ?num_workers:int ->
  ?tick:float ->
  pp:(Format.formatter -> 'job -> unit) ->
  next:(unit -> 'job option) ->
  run:('job -> unit) ->
  unit ->
  'job t
(** [num_workers] defaults to [2]. With [tick] (seconds), {!start} also
    spawns a ticker that signals the workers at that period; without
    it, only {!wake} does. [next] must be thread-safe and claim the job
    it returns; [run] must release the claim even on failure
    (exceptions escaping [run] are caught and logged by the worker,
    naming the job with [pp]). No domain is spawned until {!start}. *)

val start : _ t -> unit
(** Spawn the worker pool, and the ticker if [tick] was given.
    Idempotent. *)

val wake : _ t -> unit
(** Signal the workers that work may exist. Never blocks; safe from any
    domain; cheap when all workers are busy. *)

val stop : _ t -> unit
(** Ask workers to finish their current job, then join every domain.
    The ticker wakes within ~50 ms regardless of [tick].
    Idempotent. After [stop], {!wake} is a no-op. *)

val jobs_run : _ t -> int
(** Total jobs executed (for stats and tests). *)
