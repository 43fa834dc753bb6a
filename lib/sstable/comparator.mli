(** Key ordering used by blocks, tables and the LSM layer.

    Like LevelDB's [Comparator] option: the disk format stores opaque byte
    strings; ordering is supplied by the caller so the LSM layer can order
    internal keys (user key ascending, timestamp ascending) without an
    order-preserving byte encoding.

    Each ordering is written once, as [compare_sub]: blocks compare a key
    where it lies in the block (a restart key in the block bytes, a
    rebuilt key in a reusable buffer) without cutting it out first.
    [compare] is derived from it. Byte strings are ordered by
    {!bytewise_compare_range}, eight bytes a step. *)

type t = private {
  name : string;
  compare_sub : string -> int -> int -> string -> int;
      (** [compare_sub s pos len target] orders the key [s.[pos .. pos+len)]
          against [target]. The caller guarantees the range lies in [s]. *)
  compare : string -> string -> int;
      (** [compare a b = compare_sub a 0 (String.length a) b]. *)
  separator : last:string -> next:string option -> string;
      (** The index key {!Table_builder} writes for a data block whose
          last key is [last], given the first key of the next block
          ([None] for the table's last block). It must lie in
          \[[last], [next]), so a probe routes to the only block that
          can hold it. *)
}

val make :
  ?separator:(last:string -> next:string option -> string) ->
  name:string ->
  (string -> int -> int -> string -> int) ->
  t
(** [separator] defaults to returning [last]: the index then holds each
    block's last key. An ordering can pick a key past [last] so that a
    probe that sorts between [last] and the next block's first key
    enters [last]'s block directly (see {!Table.find_last_le_with}). *)

val bytewise_compare_range :
  string -> int -> int -> string -> int -> int -> int
(** [bytewise_compare_range s pos len t tpos tlen] orders
    [s.[pos .. pos+len)] against [t.[tpos .. tpos+tlen)] as
    {!bytewise_compare_sub} does, without cutting either out. It compares
    eight bytes a step and allocates nothing: the first unequal words are
    ordered as big-endian unsigned integers (byte-swapped on a
    little-endian host), and only the last partial word is compared a
    byte at a time. The caller guarantees both ranges lie in their
    strings. *)

val bytewise_compare_sub : string -> int -> int -> string -> int
(** Unsigned byte order, a proper prefix first ([String.compare]'s order
    up to sign): [bytewise_compare_range s pos len target 0
    (String.length target)]. *)

val bytewise : t
(** {!bytewise_compare_sub} packaged, with the default [separator]. *)
