(** Streaming writer of sorted table files (the SSTables forming the disk
    component). Keys must be added in strictly increasing comparator order;
    data blocks are cut at [block_size], with a restart at every entry
    so each key is stored whole (see {!Block}), an index entry records each
    block's separator, and one Bloom filter covers the whole table. The
    separator is the comparator's [separator] of the block's last key and
    the next block's first key: the last key itself under
    {!Comparator.bytewise}, the last user key at the maximal timestamp
    under the LSM layer's internal-key order (unless that user key runs
    on into the next block). Either way it is [>=] every key of its block
    and [<] every key of the next.

    The table is built at [path ^ ".tmp"] and atomically renamed to [path]
    by {!finish} after an fsync, so a table file that exists under its
    final name is always complete; a crash mid-build leaves only the
    [.tmp] file, which recovery deletes. *)

type t

val create :
  ?block_size:int ->
  ?bits_per_key:int ->
  ?filter_key_of:(string -> string) ->
  ?env:Clsm_env.Env.t ->
  cmp:Comparator.t ->
  path:string ->
  unit ->
  t
(** Defaults: [block_size] 4096 bytes, [bits_per_key] 10,
    [filter_key_of] identity, [env] {!Clsm_env.Env.unix}.
    [filter_key_of] maps each stored key to the key the Bloom filter
    indexes — the LSM layer passes the user-key extractor so probes by
    user key work across versions. *)

val add : t -> key:string -> value:string -> unit
(** Raises [Invalid_argument] if keys are not strictly increasing, and
    {!Clsm_env.Env.Error} on IO failure. *)

val num_entries : t -> int

val estimated_file_size : t -> int
(** Bytes written so far plus the pending block: used by compactions to cut
    output files at the target size. *)

val finish : t -> Table_format.properties
(** Flush all blocks, write filter/props/index/footer, fsync, close and
    rename into place. Returns the table's properties. The builder must
    not be reused. Raises {!Clsm_env.Env.Error} on IO failure (the [.tmp]
    file is then left for recovery to delete). *)

val abandon : t -> unit
(** Close and delete the partially written [.tmp] file (best effort). *)
