(** Stored values: either user data or the deletion marker ⊥ — "deleting
    [a key] is performed by putting a deletion marker as the key's value"
    (paper §2.1). *)

type t = Value of string | Tombstone

val encode : t -> string
val decode : string -> t
(** Raises [Invalid_argument] on an unknown tag. *)

val decode_at : string -> pos:int -> len:int -> t
(** [decode_at s ~pos ~len = decode (String.sub s pos len)], copying the
    value out of [s] once: reads an entry where it lies in a block (see
    [Block.Iter.read_value]). *)

val is_tombstone : t -> bool

val encoded_is_tombstone : string -> bool
(** [encoded_is_tombstone s = is_tombstone (decode s)], read off the tag
    byte without copying the value. Raises like {!decode}. *)

val to_option : t -> string option
(** [Value v ↦ Some v], [Tombstone ↦ None]. *)
