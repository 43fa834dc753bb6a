open Clsm_util

type t = { bits : Bytes.t; k : int }

let bloom_hash key = Hashing.hash ~seed:0xbc9f1d34 key

let create ?(bits_per_key = 10) keys =
  (* k = bits_per_key * ln 2, clamped to [1, 30] as in LevelDB. *)
  let k = max 1 (min 30 (bits_per_key * 69 / 100)) in
  let n = max 1 (List.length keys) in
  let nbits = max 64 (n * bits_per_key) in
  let nbytes = (nbits + 7) / 8 in
  let nbits = nbytes * 8 in
  let bits = Bytes.make nbytes '\000' in
  let add key =
    let h = ref (bloom_hash key) in
    let delta = ((!h lsr 17) lor (!h lsl 15)) land 0xffffffff in
    for _ = 1 to k do
      let bit = !h mod nbits in
      let byte = Char.code (Bytes.get bits (bit / 8)) in
      Bytes.set bits (bit / 8) (Char.chr (byte lor (1 lsl (bit mod 8))));
      h := (!h + delta) land 0xffffffff
    done
  in
  List.iter add keys;
  { bits; k }

let mem t key =
  let nbits = Bytes.length t.bits * 8 in
  let h = ref (bloom_hash key) in
  let delta = ((!h lsr 17) lor (!h lsl 15)) land 0xffffffff in
  let remaining = ref t.k and hit = ref true in
  while !hit && !remaining > 0 do
    let bit = !h mod nbits in
    let byte = Char.code (Bytes.get t.bits (bit / 8)) in
    if byte land (1 lsl (bit mod 8)) = 0 then hit := false
    else begin
      h := (!h + delta) land 0xffffffff;
      decr remaining
    end
  done;
  !hit

let encode t = Bytes.to_string t.bits ^ String.make 1 (Char.chr t.k)

let decode s =
  let n = String.length s in
  if n < 2 then invalid_arg "Bloom.decode: too short";
  { bits = Bytes.of_string (String.sub s 0 (n - 1)); k = Char.code s.[n - 1] }

let size_bytes t = Bytes.length t.bits + 1
