(** Event-driven maintenance scheduler.

    Replaces the store's sleep-polling background domain with a pool of
    worker domains parked on a {!Clsm_primitives.Wakeup} cell. Write
    paths call {!wake} when they create work (memtable over its
    threshold, L0 pile-up, rotation); a ticker domain additionally
    signals every [tick_interval] as a fallback clock, so deferred work
    (e.g. a compaction that became eligible without any put noticing) is
    still picked up with bounded delay.

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
  ?tick_interval:float ->
  pp:(Format.formatter -> 'job -> unit) ->
  next:(unit -> 'job option) ->
  run:('job -> unit) ->
  unit ->
  'job t
(** [num_workers] defaults to [2]; [tick_interval] (seconds) defaults to
    [0.25]. [next] must be thread-safe and claim the job it returns;
    [run] must release the claim even on failure (exceptions escaping
    [run] are caught and logged by the worker, naming the job with
    [pp]). No domain is spawned until {!start}. *)

val start : _ t -> unit
(** Spawn the worker pool and the ticker. Idempotent. *)

val wake : _ t -> unit
(** Signal the workers that work may exist. Never blocks; safe from any
    domain; cheap when all workers are busy. *)

val stop : _ t -> unit
(** Ask workers to finish their current job, then join every domain.
    The ticker wakes within ~50 ms regardless of [tick_interval].
    Idempotent. After [stop], {!wake} is a no-op. *)

val jobs_run : _ t -> int
(** Total jobs executed (for stats and tests). *)

val wakes : _ t -> int
(** Total {!wake} signals delivered (for stats and tests). *)
