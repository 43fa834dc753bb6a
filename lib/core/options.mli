(** Store configuration. Defaults mirror the paper's evaluation setup where
    applicable (128 MB memory component §5; Bloom filters and a block cache
    inherited from LevelDB §4). *)

type group_commit = { max_batch : int; max_delay_us : int }
(** Group-commit batching policy: a leader's batch holds at most
    [max_batch] records, and its accumulation window closes when the
    committers the previous round predicts have boarded, or at the
    latest after [max_delay_us] (0 = never wait). *)

type wal_sync = [ `Per_write | `Group of group_commit | `Async ]
(** WAL durability policy for the commit points ([put]/[write_batch]/
    [rmw]): [`Per_write] fsyncs each record before acknowledging;
    [`Group g] acknowledges after a leader-batched write+fsync shared
    with concurrent committers (same crash guarantees as [`Per_write],
    amortized fsync cost); [`Async] acknowledges immediately and may lose
    the latest few writes on a crash. *)

type t = {
  dir : string;  (** data directory (created if missing) *)
  memtable_bytes : int;  (** soft size limit of [Cm] (default 128 MB) *)
  wal_sync : wal_sync;
      (** commit durability policy (default [`Async], the paper's
          queue-the-log-request configuration §2.3) *)
  wal_enabled : bool;  (** disable only for benchmarks *)
  cache_bytes : int;  (** block cache budget (default 64 MB) *)
  readahead_blocks : int;
      (** forward-scan readahead depth in data blocks (default 8): once a
          table iterator advances sequentially, up to this many physically
          contiguous blocks are fetched in one pread and decoded into the
          block cache ahead of the scan; 0 disables *)
  snapshots : Clock.snapshot_mode;
      (** the [getSnap] variant (default [Serializable]): [Linearizable]
          is §3.2.1's variant (omit lines 10–11); [Unsafe_naive] is for
          ablations only — it takes snapshot timestamps straight from
          [timeCounter], skipping the Active-set protocol, and so
          reintroduces the Figure 3/4 races (scans may observe
          inconsistent states) *)
  maintenance_workers : int;
      (** at most N concurrent maintenance domains (default 2); none
          while idle. A domain is spawned when a job is claimable and
          exits a second after it last found one; flushes and
          deep-level compactions proceed in parallel on disjoint level
          ranges *)
  lsm : Clsm_lsm.Lsm_config.t;  (** disk component tuning *)
  env : Clsm_env.Env.t;
      (** storage environment all file IO goes through (default
          {!Clsm_env.Env.unix}); replace with a {!Clsm_env.Faulty_env}
          wrapper to inject failures in tests *)
  strict_wal : bool;
      (** fail recovery on a torn or corrupt WAL tail instead of salvaging
          the valid prefix (default false) *)
  shards : int;
      (** number of range shards for {!Sharded_db.open_store} (default 1);
          ignored by the single-instance stores *)
  shard_boundaries : string list option;
      (** explicit ascending split keys (length [shards - 1]) for the
          shard router; [None] derives byte-uniform boundaries. On reopen
          the directory's persisted sharding layout wins *)
  retry : Clsm_env.Retry_policy.t;
      (** backoff policy wrapped around maintenance-path IO commit points
          (sorted-run writes, compaction merges, manifest saves) so a
          transient fault does not degrade the store on first touch —
          only exhausted retries do (default {!Clsm_env.Retry_policy.default}) *)
  scrub_interval : float;
      (** seconds between background scrub passes over the disk component
          (default 30.0); [<= 0] disables scheduled scrubbing (explicit
          [scrub_now] still works). This and [auto_repair] are the only
          work that falls due with time: one maintenance domain waits
          for the next pass, so with scrubbing off and nothing to repair
          an idle store runs no maintenance domain *)
  auto_repair : bool;
      (** run the [Repair] maintenance job automatically: settle pending
          corruption verdicts (re-verify each suspect table; keep a
          clean one, discard a rotten one) and attempt the online
          [`Degraded]→[`Ok] transition, retrying a failed attempt after
          one second (default true). With it off, verdicts stay pending
          until [repair_now], and so does a compaction whose inputs hold
          a suspect table *)
}

val default : dir:string -> t

val default_group_commit : group_commit
(** [{ max_batch = 64; max_delay_us = 50 }]. A leader waits only while
    fewer committers are pending than the previous round's batch plus
    its leftovers, and stops waiting the moment the last of them boards;
    [max_delay_us] is only the bound. An uncontended writer never waits,
    and concurrent committers board one batch instead of oscillating
    between small ones. *)

val wal_mode : t -> Clsm_wal.Wal_writer.mode
(** The {!Clsm_wal.Wal_writer.mode} this policy maps to (used everywhere
    a store layer opens a WAL writer, so all writers of one store agree). *)
