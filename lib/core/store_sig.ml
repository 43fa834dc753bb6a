(** The store signature shared by {!Db} (the paper's cLSM, see there
    for the full story) and the range-shard router {!Sharded_db}; the
    per-item documentation lives here. *)

exception Degraded of string
(** Raised by write operations after an unrecoverable IO failure (failed
    fsync, out of disk space) has switched the store to read-only mode.
    The payload describes the original failure. Reads keep working. The
    Repair job ([auto_repair]) or {!S.repair_now} lifts the state online
    once a flush and a manifest commit succeed again; so does reopening. *)

exception Closed = Clsm_primitives.Rcu_box.Closed
(** The outcome of any operation on a store once {!S.close} or
    {!S.simulate_crash} has begun, except [stats], [options], [health],
    [release_snapshot], [snapshot_ts] and the steps of an iterator
    opened before. A write that raises it had no effect. *)

(** The snapshot and iterator primitives of {!S}, from which {!Scans}
    derives its bulk reads. *)
module type SCAN_PRIMITIVES = sig
  type t
  type snapshot

  val get_snap : ?ttl:float -> t -> snapshot
  (** Consistent point-in-time view (serializable; linearizable when the
      store was opened with [snapshots = Linearizable]). Release it with
      {!release_snapshot}, or pass [ttl] (seconds) to have the handle expire
      automatically — the paper's two removal paths for unused snapshot
      handles (§3.2.1). Reading through an expired snapshot is not checked;
      its pinned versions may be garbage-collected. *)

  val release_snapshot : t -> snapshot -> unit
  (** Unpin the snapshot so compactions may GC versions it held (the
      paper's explicit API-call removal from the active snapshot list).
      Idempotent. *)

  val get_at : t -> snapshot -> string -> string option
  (** Snapshot read of a single key (§3.2.2). *)

  (** Forward iterator over live user keys: the snapshot-filtered merge of
      all components. Holds references on its components — {!iter_close} it. *)
  type iterator

  val iterator : ?snapshot:snapshot -> t -> iterator
  (** Without [snapshot], an internal snapshot is taken and released on
      close. *)

  val iter_seek_first : iterator -> unit
  val iter_seek : iterator -> string -> unit
  (** Position at the first visible key [>= target]. *)

  val iter_valid : iterator -> bool
  val iter_key : iterator -> string
  val iter_value : iterator -> string
  val iter_next : iterator -> unit
  val iter_close : iterator -> unit
end

module type S = sig
  type t

  val open_store : Options.t -> t
  (** Open (or create) the store, running crash recovery: load the manifest,
      delete orphaned files, replay live write-ahead logs (re-sorted by
      timestamp), and start the compaction domain.
      Raises on unrecoverable corruption. *)

  val close : t -> unit
  (** Shut the store down. From its start every new operation raises
      {!Closed} (see there for the exceptions), and stalled writers
      wake and raise it. Writes already past their check finish, and
      only they: close waits them out, then stops maintenance, flushes
      and closes the WAL, persists the manifest and releases the
      components. Iterators opened before [close] still read to their
      end, from the version they pinned. [health] reports
      [`Degraded] from then on. Idempotent: a second call, concurrent
      or not, returns once the first has finished. The memtable is
      {e not} flushed — like LevelDB, reopening recovers it from the
      log. *)

  (** {1 Point operations} *)

  val put : t -> key:string -> value:string -> unit
  val delete : t -> key:string -> unit
  (** Put of the deletion marker ⊥ (paper §2.1). *)

  val get : t -> string -> string option
  (** Latest value, or [None] if absent or deleted. Never blocks. *)

  (** {1 Read-modify-write} *)

  type rmw_decision =
    | Set of string  (** store this value *)
    | Remove  (** store a deletion marker *)
    | Abort  (** change nothing *)

  val rmw : t -> key:string -> (string option -> rmw_decision) -> string option
  (** [rmw t ~key f] atomically applies [f] to the current value of [key]
      (with [None] for absent/deleted) and installs its decision. [f] may be
      re-invoked after a conflict with a concurrent writer — only the final
      invocation's decision takes effect, so side effects inside [f] must be
      overwriting, not cumulative. The returned value is the pre-image read
      by the successful attempt. Lock-free: failure of one attempt implies
      another operation progressed. *)

  val put_if_absent : t -> key:string -> value:string -> bool
  (** The Figure 9 RMW flavor: atomically install [value] unless [key] is
      present. [true] if this call installed it. *)

  (** {1 Atomic write batches} *)

  type batch_op =
    | Batch_put of string * string  (** key, value *)
    | Batch_delete of string

  val write_batch : t -> batch_op list -> unit
  (** Apply all operations atomically: the shared-exclusive lock is held in
      exclusive mode for the duration (the paper inherits LevelDB's blocking
      batch implementation, §4), so no writer, RMW or snapshot can interleave,
      and the batch is logged as a single WAL record (durable
      all-or-nothing). Plain {!get}s do not take the lock and may observe a
      prefix of an in-flight batch; use snapshots for consistent reads. *)

  (** {1 Snapshots and scans} *)

  include SCAN_PRIMITIVES with type t := t

  val snapshot_ts : snapshot -> int

  val multi_get : t -> string list -> (string * string option) list
  (** Read several keys from one internal snapshot, so the results are
      mutually consistent. *)

  val range :
    ?snapshot:snapshot ->
    ?start:string ->
    ?stop:string ->
    ?limit:int ->
    t ->
    (string * string) list
  (** Collect visible bindings with [start <= key < stop] (both optional),
      at most [limit]. A range query in the paper's sense (§3.2.2). *)

  val fold :
    ?snapshot:snapshot -> (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** Full snapshot scan. *)

  (** {1 Maintenance and introspection} *)

  val compact_now : t -> unit
  (** Synchronously rotate the memtable, flush it, and run level compactions
      to quiescence. For tests, benchmarks and bulk-load flows. *)

  val simulate_crash : t -> unit
  (** Testing hook: {!close}, except that the asynchronous WAL queue is
      dropped unflushed and no manifest is persisted — the on-disk state
      is what a process crash would leave. The handle then behaves as a
      closed one; reopen the directory with {!open_store} to run
      recovery. *)

  val flush_wal : t -> unit
  val stats : t -> Stats.snapshot
  val options : t -> Options.t

  val health : t -> [ `Ok | `Partial of string | `Degraded of string ]
  (** [`Degraded reason] once an IO failure has switched the store to
      read-only mode — writes raise {!Degraded}, reads still work — and
      from the start of {!close} on.
      [`Partial "<n> table(s) awaiting re-verification"] while
      corruption verdicts are pending: reads and writes both work, a get
      treats a rotten block as a miss (answering from the surviving
      overlapping data), and a scan that meets one raises
      {!Clsm_lsm.Table_file.Corruption}. [`Ok] means neither. *)

  val scrub_now : t -> string list
  (** Synchronously re-verify every sstable block (checksums, structural
      decode, bloom/index/properties blocks — bypassing the block cache)
      and the active WAL tail. It only detects: a corrupt table gets a
      pending verdict ({!repair_now} settles it) and stays in the
      version. Empty list = clean media. The background [Scrub] job runs
      the same pass incrementally every [scrub_interval] seconds. *)

  val repair_now : t -> [ `Ok | `Partial of string | `Degraded of string ]
  (** Synchronously run the self-healing pass the background [Repair]
      job performs (regardless of [auto_repair]): settle every pending
      verdict by a fresh full re-verification of its table — a clean
      table keeps its place and nothing is written; a rotten one is
      dropped from the version and set aside as [<n>.sst.quarantined] —
      then scrub the whole component once more, and attempt the online
      [`Degraded] → [`Ok] transition by re-proving the write path.
      Returns the resulting health. *)

  val level_file_counts : t -> int list
  (** Files per level, L0 first. *)

  val memtable_bytes : t -> int
  val cache_stats : t -> Clsm_sstable.Cache.stats

  val repair : ?env:Clsm_env.Env.t -> dir:string -> unit -> unit
  (** LevelDB-style RepairDB: rebuild the manifest of a store whose manifest
      was lost or corrupted, from the table files present. Damaged tables are
      renamed aside ([.damaged]); surviving tables are installed at level 0,
      where timestamp order keeps reads correct. Run on a closed store, then
      {!open_store} as usual (WAL replay still applies). *)

  val verify_integrity : t -> string list
  (** Verify every table file (checksums, ordering, properties) and the
      level invariants of the current disk component. Empty list = healthy.
      Safe on a live store (operates on a pinned version). *)

end

(** {!S.multi_get}, {!S.range} and {!S.fold}, written once over any
    store's primitives. *)
module Scans (P : SCAN_PRIMITIVES) = struct
  open P

  let multi_get t keys =
    let s = get_snap t in
    let result = List.map (fun k -> (k, get_at t s k)) keys in
    release_snapshot t s;
    result

  let range ?snapshot ?start ?stop ?(limit = max_int) t =
    let it = iterator ?snapshot t in
    (match start with
    | Some s -> iter_seek it s
    | None -> iter_seek_first it);
    let rec collect n acc =
      if n >= limit || not (iter_valid it) then List.rev acc
      else
        let k = iter_key it in
        match stop with
        | Some e when k >= e -> List.rev acc
        | Some _ | None ->
            let v = iter_value it in
            iter_next it;
            collect (n + 1) ((k, v) :: acc)
    in
    let result = collect 0 [] in
    iter_close it;
    result

  let fold ?snapshot f t acc =
    let it = iterator ?snapshot t in
    iter_seek_first it;
    let rec go acc =
      if iter_valid it then begin
        let k = iter_key it and v = iter_value it in
        iter_next it;
        go (f k v acc)
      end
      else acc
    in
    let result = go acc in
    iter_close it;
    result
end
