(** Operation and maintenance counters (all atomic; cheap enough to keep on
    in production), including backpressure observability: how often and
    for how long the graduated write controller delayed or stalled
    writers, and compaction counts broken down by source level. *)

type t

type install_kind = [ `Flush | `Compaction | `Quarantine | `Readmit | `Commit ]
(** What a committed version edit did; the plain [`Commit] is a
    manifest save with no file change (ledger resolutions, the repair
    probe, close). *)

val install_kinds : string array
(** JSON names of the install kinds, in the index order of
    [installs]/[install_ns]. *)

type snapshot = {
  puts : int;
  gets : int;
  deletes : int;
  rmws : int;
  rmw_conflicts : int;
  snapshots_taken : int;
  scans : int;
  memtable_rotations : int;
  flushes : int;
  compactions : int;  (** merges; moves are [compaction_moves] *)
  compactions_per_level : int array;
      (** indexed by source level: [.(0)] counts L0→L1 merges *)
  compaction_ns : int;  (** cumulative merge wall-clock, ns *)
  bytes_flushed : int;  (** file bytes of the flushed tables *)
  bytes_compacted : int;  (** file bytes of the merged input tables *)
  compaction_moves : int;
      (** compactions installed as a move: inputs relinked one level
          deeper by a manifest edit, nothing read or written *)
  bytes_moved : int;  (** file bytes of the moved tables *)
  write_stalls : int;  (** hard stops (L0 at [l0_stall_limit] or memtable full) *)
  stall_ns : int;  (** cumulative time writers spent hard-stalled, ns *)
  write_slowdowns : int;  (** puts delayed by the graduated controller *)
  slowdown_delay_ns : int;  (** cumulative injected delay, nanoseconds *)
  maintenance_wakeups : int;  (** scheduler signals sent by foreground paths *)
  scrubbed_blocks : int;  (** blocks re-verified by the scrub job *)
  corruptions_detected : int;  (** checksum/structure failures classified *)
  quarantined_tables : int;  (** sstables pulled from the read view *)
  io_retries : int;  (** transient-fault retries by {!Retry_policy} *)
  auto_repairs : int;  (** online repairs back to [`Ok] health *)
  wal_group_commits : int;  (** durable WAL write+fsync rounds *)
  wal_group_records : int;  (** records those rounds acknowledged *)
  wal_fsyncs_saved : int;
      (** fsyncs amortized away by batching, vs. per-write durability *)
  wal_windows_boarded : int;
      (** group-commit accumulation windows closed early, when the
          predicted riders had boarded *)
  wal_windows_expired : int;
      (** accumulation windows closed by [max_delay_us] instead; many of
          these mean committers arrive slower than the window or the
          prediction is stale *)
  commit_waits : int;
      (** durable appends with a measured commit wait (the bucket sum of
          [commit_wait_hist]) *)
  commit_wait_ns : int;  (** cumulative commit-wait time, nanoseconds *)
  commit_wait_hist : int array;
      (** {!Clsm_util.Histogram.counts} of the commit waits in ns *)
  get_ns : int;  (** cumulative point-read latency, nanoseconds *)
  get_hist : int array;
      (** the same bucket counts of point-read latency; the timed-read
          count is the bucket sum *)
  installs : int array;  (** committed edits, indexed as [install_kinds] *)
  install_ns : int array;
      (** cumulative install latency (install lock to retired cells), ns *)
  manifest_bytes_last : int;  (** size of the latest manifest written *)
}

val create : unit -> t
val incr_puts : t -> unit
val incr_gets : t -> unit
val incr_deletes : t -> unit
val incr_rmws : t -> unit
val incr_rmw_conflicts : t -> unit
val incr_snapshots : t -> unit
val incr_scans : t -> unit
val incr_rotations : t -> unit
val incr_flushes : t -> unit

val incr_compactions : t -> ?src_level:int -> unit -> unit
(** Count a merging compaction, attributed to [src_level] when given. *)

val record_compaction_run : t -> duration_ns:int -> unit
(** Account one finished compaction job's merge taking [duration_ns] of
    wall-clock. Safe from any worker domain. *)

val record_install :
  t -> kind:install_kind -> ns:int -> manifest_bytes:int -> unit
(** Account one committed version edit. *)

val add_bytes_flushed : t -> int -> unit
val add_bytes_compacted : t -> int -> unit

val record_move : t -> bytes:int -> unit
(** Account one compaction installed as a move of [bytes] file bytes. *)

val incr_write_stalls : t -> unit

val add_stall_ns : t -> int -> unit
(** Add one writer's hard-stall wait duration (nanoseconds). *)

val add_slowdown : t -> delay_ns:int -> unit
(** Record one graduated-backpressure delay of [delay_ns]. *)

val incr_maintenance_wakeups : t -> unit

val add_scrubbed_blocks : t -> int -> unit
(** Count blocks re-verified by one scrub slice. *)

val incr_corruptions_detected : t -> unit
val incr_quarantined_tables : t -> unit
val incr_io_retries : t -> unit
val incr_auto_repairs : t -> unit

val record_group_commit : t -> records:int -> unit
(** Account one durable WAL write+fsync round covering [records] records
    ([records - 1] fsyncs saved vs. per-write durability). *)

val record_window : t -> boarded:bool -> unit
(** Account one closed group-commit accumulation window: [boarded] when
    the predicted riders boarded, [false] when its deadline passed. *)

val record_commit_wait : t -> ns:int -> unit
(** Account one durable append's commit-wait latency. *)

val record_get_latency : t -> ns:int -> unit
(** Account one point read's end-to-end latency. *)

val wal_observer : t -> Clsm_wal.Wal_writer.observer
(** The {!Clsm_wal.Wal_writer.observer} feeding this registry; pass it to
    every WAL writer the store opens. *)

val read : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Aggregate two stores' snapshots (the per-shard roll-up of a
    range-sharded store): counters and durations sum, high-watermarks
    take the maximum, and the per-level compaction arrays and the latency histograms add
    element-wise, so percentiles of the result are resolved over the
    combined population. *)

val merge_all : snapshot list -> snapshot
(** [merge]d over the list; all-zero for [[]]. *)

val commit_wait_percentile_us : snapshot -> pct:float -> int
(** Percentile of the commit-wait histogram in ceiling microseconds: the
    midpoint of the matched bucket, within a factor of [2^(1/8)] of the
    true order statistic (see {!Clsm_util.Histogram}); 0 when no waits
    were recorded. [to_json] exports p50/p99 via this. *)

val get_percentile_us : snapshot -> pct:float -> int
(** Same resolution over the point-read latency histogram. *)

val pp : Format.formatter -> snapshot -> unit
(** Renders every counter of the catalogue that {!to_json} also walks —
    the two representations cannot drift apart. *)

val to_json : snapshot -> string
(** One-line JSON object, for benchmark output and scraping. *)
