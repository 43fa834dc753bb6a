(** Reader for table files written by {!Table_builder}: footer → index →
    Bloom-filtered, cache-backed block reads, with a seekable two-level
    iterator. Open tables are immutable and safe to share across domains.

    A table opened with a cache takes a table id, and keys each block in
    the cache by one [int] that packs the id above the block's file
    offset (40 bits, so files up to 1 TiB). Two open tables never share
    a key; {!close} removes the table's blocks from the cache and only
    then frees its id for reuse. *)

exception Corrupt of string
(** A block that fails its checksum or does not decode. Every read —
    {!find_first_ge}, {!find_last_le}, {!Iter} seeks and steps,
    {!index_anchors} — raises this, never {!Block.Corrupt}; the message
    names the block's byte offset ["block@<offset>: ..."]. *)

type t

val open_file :
  ?cache:Block.t Cache.t ->
  ?env:Clsm_env.Env.t ->
  cmp:Comparator.t ->
  string ->
  t
(** Open and validate a table file through [env] (default
    {!Clsm_env.Env.unix}). The filter and properties blocks are loaded
    eagerly, and the index block is decoded once into flat arrays: every
    data block's separator (a key [>=] its last key and [<] the next
    block's first, see {!Table_builder}) end to end in one string, the
    separators' offsets, and the block handles. The reader holds these
    for the table's lifetime and searches them in place, so a lookup
    decodes nothing to find its block. When [cache] is provided their
    weight is reserved in it — the decoded index at its separators'
    bytes plus 24 bytes per block, plus 8, then the filter, properties
    and footer — so this per-open-table RAM is charged to the cache
    budget and visible in {!Cache.stats} (released by {!close}). Data
    blocks are read on demand through [cache], except by a streaming
    iterator ({!Iter.make} [~fill_cache:false]), which reads past it. A
    data block read from the file is verified and parsed inside the
    image the read returned, so a cold read copies the block once.
    Raises {!Corrupt} (an index, filter or properties block that does
    not decode is named: ["index block: ..."]) or {!Clsm_env.Env.Error},
    and [Invalid_argument] when [cache] is given and the file is longer
    than the cache key's offset bits allow, or more tables are open than
    its id bits allow. A failed open closes the file it opened. *)

val close : t -> unit
(** Release the reservation and the table's cached blocks, then the
    file. Idempotent. *)

val path : t -> string
val properties : t -> Table_format.properties
val file_size : t -> int

val index_anchors : t -> (string * int) list
(** One [(separator, stored payload bytes)] pair per data block, in key
    order, straight from the decoded index — no IO. The store does not
    call it: tests take a table's block count, separators and block
    sizes from it to place damage, count cache misses or check the
    index's reservation. *)

val index_seek : t -> string -> int
(** The index search alone: the number of the first data block whose
    separator is [>= probe], or the number of blocks if there is none. A
    point lookup enters that block first. The store does not call it:
    [bench --kernels] times it as one layer of a lookup. *)

val may_contain : t -> string -> bool
(** Bloom-filter check. The argument is the {e filter key} (the value
    [filter_key_of] produced at build time, e.g. the user key). *)

val find_first_ge : t -> string -> (string * string) option
(** First binding with key [>= probe] under the table's comparator.
    Does not consult the Bloom filter (probe keys and filter keys differ);
    callers gate with {!may_contain}. *)

val find_last_le : t -> string -> (string * string) option
(** Last binding with key [<= probe] — the newest version not exceeding a
    snapshot timestamp when internal keys order timestamps ascending.
    Like {!find_first_ge}, not Bloom-gated.
    [find_last_le t p = find_last_le_with t p (fun it -> Some (key, value))]. *)

val find_last_le_with : t -> string -> (Block.Iter.iter -> 'a option) -> 'a option
(** [find_last_le_with t probe f] positions a block iterator on the last
    binding with key [<= probe] and returns [f] of it, or [None] if there
    is none. [f] reads the entry in place ({!Block.Iter.key_sub},
    {!Block.Iter.read_value}) and must not keep the iterator: it belongs
    to the calling domain and is reused by its next lookup.

    The lookup is two binary searches: {!index_seek} over the decoded
    index, then {!Block.Iter.seek_le} over the entered block's restart
    array, comparing keys where they lie in the block (and the block
    before, when the entered one holds nothing [<= probe]). Data blocks
    are written with a restart at every entry, so the restart found is
    the entry; a table written with longer restart runs reads through
    the same search and a scan of one run. Under separators past each
    block's last user key (the internal-key order's) a probe
    [(k, max_ts)] for a stored [k] enters one block. A table whose
    separators are its blocks' last keys (written by the default
    [separator], or before the internal-key order had one) sends a probe
    just past a block's last key into the next block and falls back,
    with the same answer. A cached block is searched as it was read: a
    lookup builds nothing and adds no weight to the cache. A cache-hit
    lookup allocates nothing but [f]'s result and the loader closure. *)

module Iter : sig
  (** Two-level iterator with forward-scan readahead on a miss: when a
      sequential block-to-block advance enters a block that is not
      cached, it and the blocks physically contiguous after it (K in all,
      K = [Cache.readahead_blocks] of the table's cache) are fetched in a
      single pread and decoded into the cache ahead of the scan. A scan
      over resident blocks probes the entered block's key once and never
      looks further. Seeks reset the sequential detector, so point reads
      never prefetch. Readahead failures are swallowed — the scan
      degrades to on-demand per-block reads, which carry their own
      verification and error reporting.

      A {e streaming} iterator ([make ~fill_cache:false], LevelDB's
      [fill_cache = false]) is for a reader that passes over a table
      once and drops it, as compaction does with its inputs. It reads
      each block it enters straight from the file, one read per block,
      verifies it, and parses it where it was read. It never looks in
      the cache, inserts into it or reads ahead, so it moves no cache
      counter and evicts nothing. *)

  type iter

  val make : ?fill_cache:bool -> t -> iter
  (** [fill_cache] (default [true]): read blocks through the table's
      cache, with readahead; [false]: stream them past it. *)

  val seek_to_first : iter -> unit
  val seek : iter -> string -> unit
  val valid : iter -> bool
  val key : iter -> string
  val value : iter -> string

  val read_value : iter -> (string -> pos:int -> len:int -> 'a) -> 'a
  (** The current value where it lies, as {!Block.Iter.read_value}. *)

  val next : iter -> unit
end

val fold : (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val to_list : t -> (string * string) list

val verify : t -> (int, string) result
(** Full integrity pass: re-read the index, bloom-filter and properties
    blocks from disk (bypassing the eagerly-loaded in-memory copies),
    decode every data block (checksums are validated on read) and check
    that its restarts fall on entries stored whole
    ({!Block.check_entries}), check strict key ordering under the
    comparator, and check the entry count and key range against the
    properties block. Returns the number of entries, or a description
    of the first inconsistency. *)

type scrub_progress = {
  blocks_checked : int;  (** blocks re-verified this slice *)
  next_block : int option;
      (** cursor to resume from; [None] when the pass completed *)
}

val scrub : ?from_block:int -> ?max_blocks:int -> t -> (scrub_progress, string) result
(** Incremental media check: re-read up to [max_blocks] blocks from disk
    starting at data-block cursor [from_block] (default 0), bypassing the
    block cache, verifying each CRC trailer and structural decode. A
    slice that starts at block 0 first re-verifies the footer-addressed
    auxiliary blocks (index, filter, properties — counted as three blocks
    against the budget). [Error] describes the first corrupt block,
    including its byte offset. *)
