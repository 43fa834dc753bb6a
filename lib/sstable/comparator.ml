type t = {
  name : string;
  compare_sub : string -> int -> int -> string -> int;
  compare : string -> string -> int;
}

let make ~name compare_sub =
  { name; compare_sub; compare = (fun a b -> compare_sub a 0 (String.length a) b) }

(* Unsigned byte order of [s.[pos .. pos+len)] against [target], shorter
   prefix first: [String.compare] without the substring. *)
let bytewise_compare_sub s pos len target =
  let tlen = String.length target in
  let n = if len < tlen then len else tlen in
  let i = ref 0 in
  while
    !i < n
    && Char.equal (String.unsafe_get s (pos + !i)) (String.unsafe_get target !i)
  do
    incr i
  done;
  if !i < n then
    Char.compare (String.unsafe_get s (pos + !i)) (String.unsafe_get target !i)
  else Int.compare len tlen

let bytewise = make ~name:"bytewise" bytewise_compare_sub
