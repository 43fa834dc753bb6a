type t = {
  name : string;
  compare_sub : string -> int -> int -> string -> int;
  compare : string -> string -> int;
  separator : last:string -> next:string option -> string;
}

let last_key ~last ~next:_ = last

let make ?(separator = last_key) ~name compare_sub =
  {
    name;
    compare_sub;
    compare = (fun a b -> compare_sub a 0 (String.length a) b);
    separator;
  }

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* [s.[pos+i ..)] against [t.[tpos+i ..)] byte by byte, to [n]. *)
let rec compare_bytes s pos t tpos i n =
  if i >= n then 0
  else
    let c =
      Char.code (String.unsafe_get s (pos + i))
      - Char.code (String.unsafe_get t (tpos + i))
    in
    if c <> 0 then c else compare_bytes s pos t tpos (i + 1) n

(* Eight bytes a step while a whole word remains. At the first unequal
   pair, the word's first byte in memory must weigh most, so a
   little-endian host byte-swaps both; flipping the sign bit then makes
   the signed [<] an unsigned one. The words never leave this function
   and are compared with typed [int64] primitives, so they stay
   unboxed: the loop allocates nothing. *)
let rec compare_words s pos t tpos i n =
  if i + 8 > n then compare_bytes s pos t tpos i n
  else
    let a = get64u s (pos + i) and b = get64u t (tpos + i) in
    if (a : int64) = b then compare_words s pos t tpos (i + 8) n
    else
      let a = if Sys.big_endian then a else bswap64 a
      and b = if Sys.big_endian then b else bswap64 b in
      if Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int then -1
      else 1

let bytewise_compare_range s pos len t tpos tlen =
  let c = compare_words s pos t tpos 0 (if len < tlen then len else tlen) in
  if c <> 0 then c else Int.compare len tlen

let bytewise_compare_sub s pos len target =
  bytewise_compare_range s pos len target 0 (String.length target)

let bytewise = make ~name:"bytewise" bytewise_compare_sub
