(** cLSM: a concurrent log-structured data store.

    This is the paper's algorithm end to end:

    - {b Algorithm 1} — put/get over the global component pointers [Pm]
      (mutable memtable), [P'm] (immutable memtable being merged) and [Pd]
      (the disk component). [Pm] and [P'm] are plain atomics (the GC
      keeps a memtable alive while a reader holds it); [Pd] keeps the
      RCU-like pointer protocol with a reference counter, whose release
      closes and unlinks table files. Gets never block; puts hold a
      writer-preference shared-exclusive lock in shared mode; the merge
      hooks [beforeMerge]/[afterMerge] take it exclusively for two short
      pointer-swap critical sections.
    - {b Algorithm 2} — multi-versioned snapshots: a global [timeCounter],
      the [Active] set of in-flight put timestamps, and the monotone
      [snapTime]; {!get_snap} returns a timestamp no active put can
      invalidate, and {!val-rmw}/{!put} acquire timestamps through the
      rollback-on-race [getTS].
    - {b Algorithm 3} — non-blocking atomic read-modify-write via
      optimistic conflict detection on the memtable skip-list.

    All operations are safe to call from any number of domains. One
    background domain runs the maintenance service: memtable rotation,
    flush to level 0, and leveled compaction with snapshot-aware GC.

    {b Lifecycle.} {!close} is one more component change, to nothing:
    it turns new operations away with {!Store_sig.Closed}, then takes
    the lock exclusively, as [beforeMerge] does, so the writes already
    past their check finish and no later one reaches the WAL (see
    {!Store_sig.S.close} for the whole contract). *)

include Store_sig.S with type snapshot = Clock.snapshot

(** {1 Shards}

    What the range-shard router {!Sharded_db} needs to run several
    stores as one: a shared logical clock and one maintenance pool for
    all of them. *)

val open_shard : clock:Clock.t -> Options.t -> t
(** {!open_store}, but drawing timestamps from [clock] and starting no
    maintenance scheduler: the caller drives flush, compaction, scrub
    and repair through {!maintenance_next} and {!maintenance_run}. The
    router opens every shard on one clock, so one fenced snapshot
    timestamp is consistent across all of them, and its snapshots can
    be read through any shard. *)

val maintenance_next : t -> Clsm_maintenance.Job.t Clsm_maintenance.Scheduler.work
(** Claim this store's highest-priority runnable maintenance job
    ([Run]); else the earliest time a repair retry or a scrub pass falls
    due ([Due]), or [Idle] (also when stopped). Thread-safe; a claim
    must be discharged with {!maintenance_run} or
    {!maintenance_abandon}. *)

val maintenance_run : t -> Clsm_maintenance.Job.t -> unit
(** Execute a job claimed by {!maintenance_next} and release its claim
    (exceptions are degraded into read-only mode, never propagated). *)

val maintenance_abandon : t -> exn -> Clsm_maintenance.Job.t option -> unit
(** No domain could be spawned (the exception) to run the claimed job,
    if any: release its claim and degrade the store, whose maintenance
    cannot run. *)

val maintenance_domains : t -> int
(** Maintenance worker slots held now by the store's own pool (0 for a
    store opened with {!open_shard}); an idle store with nothing due
    holds none once its workers' linger (a second) has passed. For
    tests. *)

val set_wake_hook : t -> (unit -> unit) -> unit
(** Where "maintenance work exists" signals go for a store opened with
    {!open_shard}: the router points this at its shared scheduler's
    wake. *)
