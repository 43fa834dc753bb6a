(** Operation and maintenance counters (all atomic; cheap enough to keep on
    in production), including backpressure observability: how often and
    for how long the graduated write controller delayed or stalled
    writers, and compaction counts broken down by source level.

    One {!catalogue} declares each scalar metric once: JSON name, snapshot
    getter and, for a registry cell, its roll-up rule (a sum, or a maximum
    for a gauge). The registry is one array of atomic cells sized from it,
    plus two latency histograms; {!merge_all}, {!pp} and {!to_json} are
    derived from it. To add a metric, write its catalogue row, its
    {!snapshot} field (benches read the record by field name) and its line
    of [read], export its {!counter} here, and record it at the call site
    with {!incr}, {!add} or {!set}. *)

type t

type install_kind = [ `Flush | `Compaction | `Quarantine | `Commit ]
(** What a committed version edit did: [`Quarantine] discards rotten
    tables; the plain [`Commit] is a manifest save with no file change
    (the degraded-repair probe, close). *)

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
  maintenance_wakeups : int;
      (** scheduler signals: work created by a write (memtable over
          budget, stall, slowdown, corruption verdict) and every state
          change (claim released, version installed, store degraded) *)
  scrubbed_blocks : int;  (** blocks re-verified by the scrub job *)
  corruptions_detected : int;  (** checksum/structure failures classified *)
  quarantined_tables : int;
      (** rotten sstables discarded from the version and set aside as
          [<n>.sst.quarantined] *)
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

type counter

val puts : counter
val gets : counter
val deletes : counter
val rmws : counter
val rmw_conflicts : counter
val snapshots_taken : counter
val scans : counter
val memtable_rotations : counter
val flushes : counter
val compaction_ns : counter
val bytes_flushed : counter
val bytes_compacted : counter
val compaction_moves : counter
val bytes_moved : counter
val write_stalls : counter
val stall_ns : counter
val write_slowdowns : counter
val slowdown_delay_ns : counter
val maintenance_wakeups : counter
val scrubbed_blocks : counter
val corruptions_detected : counter
val quarantined_tables : counter
val io_retries : counter
val auto_repairs : counter

val catalogue : (string * counter option * (snapshot -> int)) list
(** The rows {!pp} and {!to_json} render, in order: JSON name, the cell
    the row reads ([None] for the rows derived from a latency histogram)
    and the row's snapshot getter. *)

val create : unit -> t

val incr : t -> counter -> unit

val add : t -> counter -> int -> unit
(** Add to a counter; a negative amount counts as 0. *)

val set : t -> counter -> int -> unit
(** Overwrite a gauge. *)

val record_compaction : t -> src_level:int -> unit
(** Count a merging compaction, also under its source level. *)

val record_install :
  t -> kind:install_kind -> ns:int -> manifest_bytes:int -> unit
(** Account one committed version edit and the manifest it wrote. *)

val record_get_latency : t -> ns:int -> unit
(** Account one point read's end-to-end latency. *)

val wal_observer : t -> Clsm_wal.Wal_writer.observer
(** The {!Clsm_wal.Wal_writer.observer} feeding this registry; pass it to
    every WAL writer the store opens. A group commit of [records] records
    also counts [records - 1] fsyncs saved vs. per-write durability. *)

val read : t -> snapshot

val merge_all : snapshot list -> snapshot
(** Aggregate stores' snapshots (the per-shard roll-up of a range-sharded
    store) by the catalogue's rules: counters and durations sum, the
    manifest-size gauge takes the maximum, and the latency histograms add
    bucket by bucket, so percentiles of the result are resolved over the
    combined population. All-zero for [[]]. *)

val commit_wait_percentile_us : snapshot -> pct:float -> int
(** Percentile of the commit-wait histogram in ceiling microseconds: the
    midpoint of the matched bucket, within a factor of [2^(1/8)] of the
    true order statistic (see {!Clsm_util.Histogram}); 0 when no waits
    were recorded. [to_json] exports p50/p99 via this. *)

val get_percentile_us : snapshot -> pct:float -> int
(** Same resolution over the point-read latency histogram. *)

val pp : Format.formatter -> snapshot -> unit
(** Renders every row of {!catalogue}, as {!to_json} does. *)

val to_json : snapshot -> string
(** One-line JSON object, for benchmark output and scraping. *)
