(** The merge procedure (paper §2.3): memtable flushes and background level
    compactions, with snapshot-aware garbage collection of obsolete
    versions — "for every key and every snapshot, the latest version of the
    key that does not exceed the snapshot's timestamp is kept" (§3.2.1). *)

type task = {
  src_level : int; (** 0 for an L0→L1 merge *)
  inputs_lo : Version.file list;
  inputs_hi : Version.file list; (** overlapping files of [target_level] *)
  target_level : int;
  drop_tombstones : bool;
      (** true when no data can exist below [target_level]: deletion
          markers that are the oldest surviving entry of their key are
          elided *)
}

val pick :
  cfg:Lsm_config.t ->
  ?level_pointers:string array ->
  ?skip:(src:int -> target:int -> bool) ->
  Version.t ->
  task option
(** L0 is compacted when it accumulates [l0_compaction_trigger] files;
    otherwise the shallowest level over its byte budget contributes one
    file, chosen round-robin through the level's key space:
    [level_pointers.(i)] (level i+1's last compacted largest key, "" to
    start over) selects the first file beyond it — LevelDB's
    [compact_pointer]. [None] when nothing needs compacting.

    Inputs are chosen by user-key overlap: a source-level file brings
    along the same-level siblings sharing a boundary user key, and the
    target-level inputs are every file meeting the inputs' user-key
    range, so no version of a compacted key is left behind.

    [skip ~src ~target] excludes a level range from consideration — used
    by the maintenance scheduler to hand parallel workers compactions on
    disjoint level ranges (a skipped candidate falls through to the next
    deeper one). Default: skip nothing.

    [drop_tombstones] is set exactly when no level below the target
    holds a file. A table leaves [v] only through an edit that drops its
    data for good (merged into outputs, or discarded as rotten), never
    to come back, so "nothing deeper" in [v] is the truth. *)

val is_trivial_move : cfg:Lsm_config.t -> Version.t -> task -> bool
(** Whether [task] (picked from [v]) can be installed as a move, without
    a merge: [edit_of_task task ~outputs:task.inputs_lo] relinks the
    inputs at [target_level] (LevelDB's trivial move). Holds when the
    task has no target-level inputs, no input is an empty table, the
    inputs are pairwise disjoint in user keys (so L0 files land
    disjoint), and they overlap at most [10 * target_file_size] bytes of
    the level below the target. A move keeps every version and
    tombstone a merge would have dropped. *)

val filter_group :
  snapshots:int list ->
  drop_tombstones:bool ->
  (int * Entry.t) list ->
  int list
(** Pure core of the GC: given the ascending timestamps (with decoded
    entries) of one user key's versions and the ascending active-snapshot
    timestamps, return the timestamps to {e keep}. Only whether each
    entry is a tombstone matters: the merge itself reads that off the
    encoded tag byte and never decodes (copies) a value. Exposed for
    direct property testing. *)

val write_sorted_run :
  cfg:Lsm_config.t ->
  dir:string ->
  ?cache:Clsm_sstable.Block.t Clsm_sstable.Cache.t ->
  ?env:Clsm_env.Env.t ->
  alloc_number:(unit -> int) ->
  snapshots:int list ->
  drop_tombstones:bool ->
  Iter.t ->
  Version.file list
(** Stream a sorted (by internal key) iterator through GC into one or more
    table files cut at [target_file_size]. Duplicate internal keys (ties
    across merge inputs) are deduplicated keeping the first. Returns the
    new files (each with one owning reference), sorted, possibly empty.
    On IO failure the partial outputs (in-flight temp file and any
    finished tables) are deleted best-effort before the exception
    propagates. *)

val run :
  cfg:Lsm_config.t ->
  dir:string ->
  ?cache:Clsm_sstable.Block.t Clsm_sstable.Cache.t ->
  ?env:Clsm_env.Env.t ->
  alloc_number:(unit -> int) ->
  snapshots:int list ->
  task ->
  Version.file list
(** Merge the task's inputs and write the target-level output run. The
    inputs are read past the block cache ([Version.iter_of_file
    ~fill_cache:false]): they move no cache counter and evict no block.
    The outputs are opened with [cache], so readers cache them. *)

val edit_of_task : task -> outputs:Version.file list -> Version_edit.t
(** The task's install: every input removed, the outputs added at
    [target_level]. Applied with {!Version.apply}; a base version that
    gained L0 files since the task was picked keeps them. With
    [~outputs:task.inputs_lo] it is a move: each input is both removed
    and added, so it only changes level. *)
