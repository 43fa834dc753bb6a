open Clsm_util

type t = { user_key : string; ts : int }

let ts_size = 8
let max_ts = max_int

let make user_key ts =
  let n = String.length user_key in
  let b = Bytes.create (n + ts_size) in
  Bytes.blit_string user_key 0 b 0 n;
  Binary.put_fixed64 b ~pos:n ts;
  Bytes.unsafe_to_string b

let encode { user_key; ts } = make user_key ts

let check s =
  if String.length s < ts_size then invalid_arg "Internal_key: too short"

let decode s =
  check s;
  let n = String.length s - ts_size in
  { user_key = String.sub s 0 n; ts = Binary.get_fixed64 s ~pos:n }

let probe user_key = make user_key max_ts

let user_key_of s =
  check s;
  String.sub s 0 (String.length s - ts_size)

let ts_of s =
  check s;
  Binary.get_fixed64 s ~pos:(String.length s - ts_size)

let compare a b =
  let c = String.compare a.user_key b.user_key in
  if c <> 0 then c else Int.compare a.ts b.ts

(* The timestamp stored at [s.[pos .. pos+8)], read without
   [Binary.get_fixed64]'s range check so that ordering a damaged key
   never raises. Equal to [get_fixed64] on every key {!encode} wrote. *)
let ts_at s pos =
  Binary.get_fixed32 s ~pos lor (Binary.get_fixed32 s ~pos:(pos + 4) lsl 32)

(* The one implementation of the internal-key order: user keys
   bytewise (a proper prefix first), then timestamps ascending. The
   user keys are compared a word at a time, so a comparison allocates
   nothing. *)
let compare_sub s pos len target =
  let la = len - ts_size and lb = String.length target - ts_size in
  if la < 0 || lb < 0 then invalid_arg "Internal_key.compare_encoded";
  let c = Clsm_sstable.Comparator.bytewise_compare_range s pos la target 0 lb in
  if c <> 0 then c else Int.compare (ts_at s (pos + la)) (ts_at target lb)

let compare_encoded a b = compare_sub a 0 (String.length a) b

let compare_user_key ik user_key =
  check ik;
  Clsm_sstable.Comparator.bytewise_compare_sub ik 0
    (String.length ik - ts_size)
    user_key

let ts_if_user_key s pos len user_key =
  let n = len - ts_size in
  if n < 0 then invalid_arg "Internal_key: too short";
  if Clsm_sstable.Comparator.bytewise_compare_sub s pos n user_key <> 0 then -1
  else Binary.get_fixed64 s ~pos:(pos + n)

(* The index key of a block ending at [last]: its user key at [max_ts],
   which sorts after every version of that key, when the next block
   starts another user key (or there is none). A user key whose
   versions run on into the next block keeps [last], so its probe
   still routes there, to its newest versions. *)
let separator ~last ~next =
  let sep = probe (user_key_of last) in
  match next with
  | Some next when compare_encoded next sep <= 0 -> last
  | Some _ | None -> sep

let comparator =
  Clsm_sstable.Comparator.make ~separator ~name:"clsm-internal-key" compare_sub
