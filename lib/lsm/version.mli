(** An immutable snapshot of the disk component [Cd]: the set of table
    files, organized as overlapping level-0 files (memtable flushes, newest
    first) plus non-overlapping sorted runs for levels 1 and deeper.

    Versions are immutable; flushes and compactions build a {e new} version
    sharing unchanged files with the old one. Files are reference-counted:
    {!create} takes a reference on every listed file, {!release} drops
    them, and a file marked obsolete is closed and deleted when its last
    version goes away. The current version pointer lives in an
    {!Clsm_primitives.Rcu_box} at the store layer — this is the paper's
    [Pd]. *)

type file = Table_file.t Clsm_primitives.Refcounted.t

type t = {
  l0 : file list; (* newest first *)
  levels : file list array; (* [levels.(i)] is level [i+1], sorted, disjoint *)
  runs : file array array; (* [levels] as arrays, binary-searched by {!get} *)
  scan : (file array * string array) array;
      (* each level's non-empty files and their largest keys, for the run
         iterators of {!iters} *)
}

val empty : num_levels:int -> t

val create : l0:file list -> levels:file list array -> t
(** Takes a reference on every file (the caller keeps its own). *)

val release : t -> unit
(** Drop this version's references. *)

val files_by_level : t -> (int * file) list
(** Every file with its level, L0 first (newest first), then each deeper
    level in key order — the shape of {!Version_edit.t}'s [added], so
    [apply (empty ~num_levels) { Version_edit.empty with added }]
    rebuilds the version from such a list. *)

val num_files : t -> int
val level_file_count : t -> int -> int
val level_bytes : t -> int -> int
(** [level] 0-based ([0] = L0, [i] = level i). *)

val total_bytes : t -> int

val file_bytes : file list -> int
(** Sum of the files' sizes. *)

val get :
  ?on_corrupt:(Table_file.t -> string -> unit) ->
  t ->
  user_key:string ->
  snap_ts:int ->
  (int * Entry.t) option
(** Newest version of [user_key] with timestamp [<= snap_ts], searching L0
    (all files, maximum timestamp wins) and then each deeper level. Returns
    the timestamp and the stored entry — [Some (_, Tombstone)] means the
    key was deleted as of [snap_ts] and deeper components must not be
    consulted.

    A checksum/decode failure raises {!Table_file.Corruption}; with
    [on_corrupt] the failure is reported to the callback instead and the
    rotten file treated as a miss, so the remaining overlapping data
    still answers — possibly with an older committed version. Note that
    if the {e tombstone} itself lived in the rotten file, that older
    version is a key the caller committed a delete for: containment
    reads may observe deleted keys as live until repair settles the
    table's verdict. Callers that rely on strict delete semantics must treat
    [`Partial] store health as a reason to fail the read instead of
    serving around the rot. *)

val iter_of_file : ?fill_cache:bool -> file -> Iter.t
(** Iterator over one file that raises the typed {!Table_file.Corruption}
    (instead of the stringly sstable error) on checksum failure. With
    [~fill_cache:false] it streams the file's blocks past the block
    cache ({!Clsm_sstable.Table.Iter.make}): compaction reads its inputs
    so, and scans ({!iters}) read through the cache. *)

val iters : t -> Iter.t list
(** One iterator per L0 file (newest first) followed by one
    {!Iter.run} per non-empty level, which opens a file's table iterator
    only when a seek or a step enters it; inputs for merged scans. Iterators
    raise the typed {!Table_file.Corruption} on checksum failure — a scan
    never silently skips a rotten key range. *)

val find_file : t -> int -> file option
(** The live file with the given table number, if any. *)

val apply : t -> Version_edit.t -> t
(** The successor version: every file whose number the edit removes is
    dropped from whatever level holds it, and the added files join their
    levels — prepended at L0, merged in smallest-key order deeper.
    Removed numbers not in [t] are ignored, so the base may have gained
    or lost unrelated files since the edit was built. References are
    taken as in {!create}; the ledger fields are the store's business.
    Raises [Invalid_argument] on a level outside the version. *)

val overlapping : file list -> smallest:string -> largest:string -> file list
(** Files of a sorted level whose internal-key range intersects
    [[smallest, largest]]. *)

val files_range : file list -> (string * string) option
(** Union internal-key range of the given files. *)

val validate : t -> string list
(** Structural and content checks of the whole disk component: every table
    file verifies ({!Clsm_sstable.Table.verify}), and levels 1+ are sorted
    and disjoint. Returns human-readable problems (empty = healthy). *)
