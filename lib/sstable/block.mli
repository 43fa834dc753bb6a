(** Reader for blocks produced by {!Block_builder}: in-memory parse plus a
    seekable iterator that binary-searches the restart array and then scans
    forward, reconstructing prefix-compressed keys.

    The search compares keys where they lie, through the comparator's
    [compare_sub]: restart keys in the block bytes, rebuilt keys in two
    buffers the iterator owns. Positioning allocates nothing once those
    buffers fit the block's longest key; only {!Iter.key} and
    {!Iter.value} copy bytes out. *)

exception Corrupt of string
(** A structurally malformed block. Every decode failure of a block —
    restart array, varint, entry extent, shared prefix — is raised as
    this. *)

type t

val parse : Comparator.t -> string -> t
(** Validate the trailer and wrap the serialized block.
    Raises {!Corrupt} if the restart array is malformed. *)

val num_restarts : t -> int
val size_bytes : t -> int

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
      versions are ordered by ascending timestamp. *)

  val seek_last : iter -> unit
  (** Position at the last entry of the block (invalid if empty). *)

  val valid : iter -> bool
  val key : iter -> string
  (** Raises [Invalid_argument] if not {!valid}. *)

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
