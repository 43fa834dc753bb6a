(** Internal keys: a user key paired with the cLSM timestamp of the write.

    Multi-versioning (paper §3.2) stores key-timestamp-value triples sorted
    in lexicographical order of the (key, timestamp) pair — user key
    ascending, timestamp {e ascending} — so that Algorithm 3 can probe
    [(k, ∞)] and find the newest version of [k] as the predecessor.

    The encoded form appends the timestamp as 8 little-endian bytes to the
    user key; ordering of encoded keys is defined by {!compare_encoded}
    (byte order is not order-preserving across different key lengths, hence
    the explicit comparator threaded through blocks and tables). *)

type t = { user_key : string; ts : int }

val ts_size : int

val max_ts : int
(** Probe sentinel standing for [∞]; real timestamps are always below it. *)

val encode : t -> string
val decode : string -> t
(** Raises [Invalid_argument] if the input is shorter than {!ts_size}. *)

val make : string -> int -> string
(** [make k ts] = [encode { user_key = k; ts }]. *)

val probe : string -> string
(** [probe k] = [make k max_ts] — the Algorithm 3 / get upper bound. *)

val user_key_of : string -> string
(** User key of an encoded internal key. *)

val ts_of : string -> int

val compare : t -> t -> int
val compare_encoded : string -> string -> int
(** Order of encoded keys. Raises [Invalid_argument] on a key shorter
    than {!ts_size}. *)

val compare_user_key : string -> string -> int
(** [compare_user_key ik k] = [String.compare (user_key_of ik) k],
    without the copy. *)

val ts_if_user_key : string -> int -> int -> string -> int
(** [ts_if_user_key s pos len user_key] is the timestamp of the internal
    key [s.[pos .. pos+len)] if its user key is [user_key], else [-1]
    (timestamps are never negative). Arguments as a comparator's
    [compare_sub], so a block entry is read in place
    ([Block.Iter.key_sub]). Raises like {!compare_user_key} and
    {!ts_of}. *)

val comparator : Clsm_sstable.Comparator.t
(** The order packaged for blocks and tables: its [compare_sub] is the
    one implementation, [compare_encoded] its whole-string form. Its
    [separator] is a block's last user key at {!max_ts}, which sorts
    after every version of that key, unless the next block continues
    the user key; then it is the block's last key, so the key's probe
    routes on to its newest versions. A lookup for [probe k] thus
    enters the one block that holds [k]'s newest version. *)
