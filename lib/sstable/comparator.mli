(** Key ordering used by blocks, tables and the LSM layer.

    Like LevelDB's [Comparator] option: the disk format stores opaque byte
    strings; ordering is supplied by the caller so the LSM layer can order
    internal keys (user key ascending, timestamp ascending) without an
    order-preserving byte encoding.

    Each ordering is written once, as [compare_sub]: blocks compare a key
    where it lies in the block (a restart key in the block bytes, a
    rebuilt key in a reusable buffer) without cutting it out first.
    [compare] is derived from it. *)

type t = private {
  name : string;
  compare_sub : string -> int -> int -> string -> int;
      (** [compare_sub s pos len target] orders the key [s.[pos .. pos+len)]
          against [target]. The caller guarantees the range lies in [s]. *)
  compare : string -> string -> int;
      (** [compare a b = compare_sub a 0 (String.length a) b]. *)
}

val make : name:string -> (string -> int -> int -> string -> int) -> t

val bytewise_compare_sub : string -> int -> int -> string -> int
(** Unsigned byte order, a proper prefix first ([String.compare]'s order). *)

val bytewise : t
(** {!bytewise_compare_sub} packaged. *)
