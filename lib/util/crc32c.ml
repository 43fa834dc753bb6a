(* CRC-32C, reflected polynomial 0x82F63B78. On an x86-64 CPU with
   SSE4.2 the C stub folds 8 bytes per [crc32] instruction; everywhere
   else the portable loop below runs. The choice is made once, at module
   init, and both give the same CRC.

   The portable loop is slicing-by-8: eight 256-entry tables let each
   step fold 8 input bytes into the CRC with eight independent lookups
   instead of eight dependent ones. Table k maps a byte to its CRC
   contribution when followed by k zero bytes, so table 0 is the classic
   byte-at-a-time table. The result is the same CRC as the byte loop,
   which finishes the sub-8-byte tail. *)

let poly = 0x82F63B78

(* [tables.((k * 256) + b)]: table k, byte b. One flat array keeps every
   lookup a single indexed load. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := poly lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] lookup k b = Array.unsafe_get tables ((k * 256) + b)

(* Two 32-bit loads rather than one 64-bit one: [Int64.to_int] would drop
   bit 63. *)
let[@inline] get32 s i = Int32.to_int (String.get_int32_le s i) land 0xffffffff

(* The loop over a checked range; [crc] is the inverted register. *)
let portable_update crc s ~pos ~len =
  let crc = ref crc in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let lo = get32 s !i lxor !crc in
    let hi = get32 s (!i + 4) in
    crc :=
      lookup 7 (lo land 0xff)
      lxor lookup 6 ((lo lsr 8) land 0xff)
      lxor lookup 5 ((lo lsr 16) land 0xff)
      lxor lookup 4 (lo lsr 24)
      lxor lookup 3 (hi land 0xff)
      lxor lookup 2 ((hi lsr 8) land 0xff)
      lxor lookup 1 ((hi lsr 16) land 0xff)
      lxor lookup 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to pos + len - 1 do
    crc :=
      lookup 0 ((!crc lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc

external hw_available : unit -> bool = "clsm_crc32c_hw_available"

(* Reads [s.[pos .. pos+len-1]] unchecked: callers check the range. *)
external hw_update :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "clsm_crc32c_hw_update_byte" "clsm_crc32c_hw_update"
[@@noalloc]

let hardware = hw_available ()
let implementation = if hardware then "sse4.2" else "portable"

let check s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32c.sub"

let sub ?(init = 0) s ~pos ~len =
  check s ~pos ~len;
  let crc = init lxor 0xffffffff in
  (if hardware then hw_update crc s pos len else portable_update crc s ~pos ~len)
  lxor 0xffffffff

let portable_sub ?(init = 0) s ~pos ~len =
  check s ~pos ~len;
  portable_update (init lxor 0xffffffff) s ~pos ~len lxor 0xffffffff

let string ?init s = sub ?init s ~pos:0 ~len:(String.length s)

let mask_delta = 0xa282ead8

let mask crc =
  let rotated = ((crc lsr 15) lor (crc lsl 17)) land 0xffffffff in
  (rotated + mask_delta) land 0xffffffff

let unmask masked =
  let rotated = (masked - mask_delta) land 0xffffffff in
  ((rotated lsr 17) lor (rotated lsl 15)) land 0xffffffff
