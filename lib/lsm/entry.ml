type t = Value of string | Tombstone

let encode = function Value v -> "\000" ^ v | Tombstone -> "\001"

let tombstone_at s ~pos ~len =
  if len < 1 then invalid_arg "Entry.decode: empty";
  match s.[pos] with
  | '\000' -> false
  | '\001' -> true
  | _ -> invalid_arg "Entry.decode: unknown tag"

let encoded_is_tombstone s = tombstone_at s ~pos:0 ~len:(String.length s)

let decode_at s ~pos ~len =
  if tombstone_at s ~pos ~len then Tombstone
  else Value (String.sub s (pos + 1) (len - 1))

let decode s = decode_at s ~pos:0 ~len:(String.length s)
let is_tombstone = function Tombstone -> true | Value _ -> false
let to_option = function Value v -> Some v | Tombstone -> None
