type t = Value of string | Tombstone

let encode = function Value v -> "\000" ^ v | Tombstone -> "\001"

let encoded_is_tombstone s =
  if String.length s < 1 then invalid_arg "Entry.decode: empty";
  match s.[0] with
  | '\000' -> false
  | '\001' -> true
  | _ -> invalid_arg "Entry.decode: unknown tag"

let decode s =
  if encoded_is_tombstone s then Tombstone
  else Value (String.sub s 1 (String.length s - 1))

let is_tombstone = function Tombstone -> true | Value _ -> false
let to_option = function Value v -> Some v | Tombstone -> None
