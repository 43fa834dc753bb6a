(** Uniform forward iterator interface over sorted key-value sources
    (memtable cursors, table files, the files of one level, merged
    views), as a record of closures so heterogeneous sources compose.

    Over the LSM's internal keys a value is an encoded {!Entry.t}. Two
    readers serve two consumers: [value] returns the encoded bytes, which
    compaction copies into the next table as they are; [entry] returns
    the decoded entry, which a scan keeps — a table decodes it where it
    lies in the block and a memtable returns the entry it stores, so a
    scanned value is copied once. *)

type t = {
  seek_to_first : unit -> unit;
  seek : string -> unit; (* first entry >= target *)
  valid : unit -> bool;
  key : unit -> string;
  value : unit -> string;
  entry : unit -> Entry.t;  (** [Entry.decode (value ())], copied once *)
  next : unit -> unit;
}

val table_fault : exn -> string option
(** The message of an exception a table read raises for bytes that are
    the table's fault: {!Clsm_sstable.Table.Corrupt} (a block failing
    its checksum or not decoding), or, in a checksum-valid block, the
    [Invalid_argument] or [Failure] that the internal-key order and the
    entry decoder raise for a key shorter than its timestamp or an
    unknown entry tag; [None] for any other exception. The one
    classification both the point lookup and the table iterator use. *)

val of_table :
  ?corruption:(string -> exn) -> ?fill_cache:bool -> Clsm_sstable.Table.t -> t
(** A table's entries. A seek, step or entry decode that meets one of
    {!table_fault}'s faults raises [corruption] of its message
    (default: {!Clsm_sstable.Table.Corrupt}). [fill_cache] is
    {!Clsm_sstable.Table.Iter.make}'s: [false] streams the table's
    blocks past the block cache, for compaction's inputs. *)

val of_array : (string * string) array -> t
(** Over an array already sorted by the caller (tests, fixtures). Seek uses
    {!Internal_key.compare_encoded}-free plain binary search with the given
    comparator. *)

val of_sorted_list : cmp:(string -> string -> int) -> (string * string) list -> t

val run : cmp:(string -> string -> int) -> largest:string array -> (int -> t) -> t
(** [run ~cmp ~largest open_file] iterates a sorted run of [n =
    Array.length largest] disjoint sources in ascending key order (the
    non-empty files of one level): [largest] ascends, and every key of
    source [i] is [<= largest.(i)] and [>= largest.(i - 1)] (an empty
    source may repeat its predecessor's bound). [seek] binary-searches
    [largest] for the one source that can hold the target and opens only
    that one; [next] falls through to the first entry of the following
    source when one is exhausted. [open_file i] runs when the cursor
    enters source [i], so a seek opens one source, not [n]; a seek that
    lands on the source already entered reuses its iterator.

    Versions of one user key may straddle adjacent files; seeking to
    [Internal_key.make uk 0] lands on the first file holding any of
    them. *)

val clamp :
  ?lo:string -> ?hi:string -> cmp:(string -> string -> int) -> t -> t
(** Half-open range view [\[lo, hi)] under [cmp]: [seek_to_first] lands on
    the first entry [>= lo], [seek target] never goes below [lo], and the
    view reports invalid at the first entry [>= hi]. The underlying
    iterator is not advanced past that entry. With internal keys,
    clamping to [Internal_key.make uk 0] boundaries partitions by user
    key: every version of one user key falls in exactly one view.
    [Clsm_core.Sharded_db] clamps each shard's scan to the shard's key
    range. *)

val fold : (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** Runs [seek_to_first] then folds over every entry. *)

val to_list : t -> (string * string) list

val next_visible : t -> snap_ts:int -> (string * string) option
(** Over internal keys: consume every version of the user key at the
    cursor and return its binding visible at [snap_ts]; a key whose
    visible version is a tombstone, or that has none, is skipped for the
    next one. [None] once the iterator is exhausted. The user key is
    copied once; the following keys are compared with it in place, and
    only versions visible at [snap_ts] are read, through [entry]. *)
