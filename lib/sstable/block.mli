(** Reader for blocks produced by {!Block_builder}: in-memory parse plus a
    seekable iterator that reconstructs prefix-compressed keys.

    The restart array is the block's one search structure. {!Iter.seek}
    and {!Iter.seek_le} binary-search it, comparing each probed restart's
    key where it lies in the block bytes through the comparator's
    [compare_sub]: three varints, an extent check, and the compare. A
    table writes its data blocks at restart interval 1, so every key is
    stored whole and the restart found is the entry sought, positioned
    on with one decode. A block written at a larger interval (every
    table written before tables used interval 1) reads through the same
    search, then a forward scan bounded by the next restart. Positioning
    allocates nothing once the iterator's key buffers fit the block's
    longest key; only {!Iter.key} and {!Iter.value} copy bytes out. *)

exception Corrupt of string
(** A structurally malformed block. Every decode failure of a block —
    restart array, varint, entry extent, shared prefix — is raised as
    this. *)

type t

val parse : ?len:int -> Comparator.t -> string -> t
(** [parse ?len cmp data] validates the trailer and restart array and
    wraps the serialized block [data.[0 .. len)] (default: all of
    [data]) where it lies, with no copy: a table parses a block read
    from disk inside the image [payload ^ trailer] it read, so the block
    keeps the 5-byte trailer alive beside it. Raises {!Corrupt} unless
    the restart count fits the block, restart 0 is at offset 0, and the
    offsets strictly increase inside the entry region (one pass over the
    restarts); raises [Invalid_argument] if [len] is not within
    [data]. *)

val num_restarts : t -> int

val size_bytes : t -> int
(** The block's own bytes, [len] at {!parse}: what the block cache
    weighs it by. Bytes of [data] past [len] are not counted — for a
    block parsed in its on-disk image, the 5-byte trailer, 0.1 % of a
    4 KB block. *)

val check_entries : t -> unit
(** Decode every entry, with every check a step makes, and check that
    each restart falls on an entry whose key is stored whole, as the
    restart search assumes. Raises {!Corrupt} otherwise. Lookups make
    these checks only on the entries they read; {!Table.verify} makes
    them on every block. *)

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
      versions are ordered by ascending timestamp. The restart search
      {!seek} makes, then one decode of the restart found when it is
      alone in its run (always, at interval 1); {!next} continues from
      there. *)

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
