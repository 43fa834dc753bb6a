(** Uniform forward iterator interface over sorted key-value sources
    (memtable cursors, table files, merged views), as a record of closures
    so heterogeneous sources compose. *)

type t = {
  seek_to_first : unit -> unit;
  seek : string -> unit; (* first entry >= target *)
  valid : unit -> bool;
  key : unit -> string;
  value : unit -> string;
  next : unit -> unit;
}

val of_table : Clsm_sstable.Table.t -> t

val of_array : (string * string) array -> t
(** Over an array already sorted by the caller (tests, fixtures). Seek uses
    {!Internal_key.compare_encoded}-free plain binary search with the given
    comparator. *)

val of_sorted_list : cmp:(string -> string -> int) -> (string * string) list -> t

val concat : t list -> t
(** Sequential composition of disjoint sources in ascending key order (the
    files of one level). [seek] probes sources left to right; [next] falls
    through to the following source when one is exhausted. *)

val clamp :
  ?lo:string -> ?hi:string -> cmp:(string -> string -> int) -> t -> t
(** Half-open range view [\[lo, hi)] under [cmp]: [seek_to_first] lands on
    the first entry [>= lo], [seek target] never goes below [lo], and the
    view reports invalid at the first entry [>= hi]. The underlying
    iterator is not advanced past that entry. With internal keys,
    clamping to [Internal_key.make uk 0] boundaries yields an exact
    user-key partition: every version of one user key falls in exactly
    one subrange (range-partitioned subcompactions rely on this). *)

val fold : (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** Runs [seek_to_first] then folds over every entry. *)

val to_list : t -> (string * string) list

val next_visible : t -> snap_ts:int -> (string * string) option
(** Over internal keys: consume every version of the user key at the
    cursor and return its binding visible at [snap_ts]; a key whose
    visible version is a tombstone, or that has none, is skipped for the
    next one. [None] once the iterator is exhausted. *)
