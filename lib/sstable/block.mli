(** Reader for blocks produced by {!Block_builder}: in-memory parse plus a
    seekable iterator that reconstructs prefix-compressed keys.

    {!Iter.seek} binary-searches the restart array and then scans
    forward, comparing keys where they lie through the comparator's
    [compare_sub]: restart keys in the block bytes, rebuilt keys in two
    buffers the iterator owns. {!Iter.seek_le}, the point lookup's
    search, binary-searches the block's key directory instead. Positioning
    allocates nothing once the buffers fit the block's longest key; only
    {!Iter.key} and {!Iter.value} copy bytes out.

    {2 Key directory}

    The first {!Iter.seek_le} into a block (or {!add_directory}) builds
    its key directory: every entry's whole key, end to end in one
    string, and one [int] array of each key's start and each entry's
    offset. It costs the keys' bytes plus 16 bytes per entry, plus 8.
    It is built by one forward decode with every check a step makes, so
    a malformed entry raises {!Corrupt} there, and it is published
    through an [Atomic.t]: a domain sees no directory or a whole one.
    Scans and compaction read every entry in order and never build
    one. *)

exception Corrupt of string
(** A structurally malformed block. Every decode failure of a block —
    restart array, varint, entry extent, shared prefix — is raised as
    this. *)

type t

val parse : ?len:int -> Comparator.t -> string -> t
(** [parse ?len cmp data] validates the trailer and wraps the serialized
    block [data.[0 .. len)] (default: all of [data]) where it lies, with
    no copy: a table parses a block read from disk inside the image
    [payload ^ trailer] it read, so the block keeps the 5-byte trailer
    alive beside it. Raises {!Corrupt} if the restart array is
    malformed, and [Invalid_argument] if [len] is not within [data]. *)

val num_restarts : t -> int

val size_bytes : t -> int
(** The block's own bytes, [len] at {!parse}: what the block cache
    weighs it by. Bytes of [data] past [len] are not counted — for a
    block parsed in its on-disk image, the 5-byte trailer, 0.1 % of a
    4 KB block. *)

val add_directory : t -> int
(** Build and publish the key directory unless the block has one.
    Returns the directory's bytes if this call published it, else 0: of
    domains racing into a fresh block, exactly one sees its bytes, so a
    caller can charge them once. Raises {!Corrupt} if an entry does not
    decode or a restart does not fall on an entry stored whole. *)

module Iter : sig
  type iter

  val make : t -> iter
  (** Fresh iterator, initially invalid. *)

  val reset : iter -> t -> unit
  (** Rebind to another block, invalid, keeping the key buffers: one
      iterator serves block after block. *)

  val seek_to_first : iter -> unit

  val seek : iter -> string -> unit
  (** Position at the first entry with key [>= target] under the block's
      comparator (invalid if none). *)

  val seek_le : iter -> string -> unit
  (** Position at the {e last} entry with key [<= target] (invalid if
      none). Used for newest-version-not-exceeding-a-snapshot lookups when
      versions are ordered by ascending timestamp. A binary search of the
      key directory (built first if the block has none) and one decode of
      the entry's header; {!next} continues from there. *)

  val valid : iter -> bool
  val key : iter -> string
  (** Raises [Invalid_argument] if not {!valid}. *)

  val key_sub : iter -> (string -> int -> int -> 'a -> 'b) -> 'a -> 'b
  (** [key_sub it f x] is [f s pos len x] with
      [String.sub s pos len = key it], read where the iterator keeps it,
      so nothing is copied; the arguments are a comparator's
      [compare_sub]'s. [f] must not keep [s]. Raises [Invalid_argument]
      if not {!valid}. *)

  val value : iter -> string
  (** Raises [Invalid_argument] if not {!valid}. [key] is made a string
      once per entry and then returned as is; [value] copies each call. *)

  val read_value : iter -> (string -> pos:int -> len:int -> 'a) -> 'a
  (** [read_value it f] applies [f] to the current value where it lies:
      [f data ~pos ~len] with [String.sub data pos len = value it].
      [data] is the whole block: [f] copies out what it keeps. *)

  val value_handle : iter -> Block_handle.t
  (** The current value decoded as a block handle (index blocks), with
      no copy. Raises {!Corrupt} if it is not one. *)

  val next : iter -> unit

  val fold : (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** Fold over all entries in order. *)
end
