open Clsm_util

exception Corrupt of string

let corrupt m = raise (Corrupt m)

type t = {
  data : string;
  limit : int; (* end of entry region / start of restart array *)
  num_restarts : int;
  cmp : Comparator.t;
}

let parse cmp data =
  let n = String.length data in
  if n < 4 then raise (Corrupt "block too small");
  let num_restarts = Binary.get_fixed32 data ~pos:(n - 4) in
  let trailer = 4 + (4 * num_restarts) in
  if num_restarts < 1 || trailer > n then raise (Corrupt "bad restart count");
  { data; limit = n - trailer; num_restarts; cmp }

let num_restarts t = t.num_restarts
let size_bytes t = String.length t.data
let restart_offset t i = Binary.get_fixed32 t.data ~pos:(t.limit + (4 * i))

module Iter = struct
  (* An entry is [shared; non_shared; value_len] as varints, then the
     [non_shared] key bytes that follow the [shared]-byte prefix of the
     previous key, then the value. Keys are rebuilt into two buffers that
     the iterator owns: a step forward writes the new key into [spare]
     and swaps, so [spare] then holds the previous key and {!step_back}
     swaps again. The two keys share the [shared] prefix of the newer
     one, so the next step copies only what the older one lacks. Nothing
     is allocated per entry once the buffers fit
     the block's longest key; [key] makes the key a string on demand,
     once per entry. *)
  type iter = {
    mutable block : t;
    mutable pos : int; (* varint cursor *)
    mutable offset : int; (* start of current entry, [block.limit] when invalid *)
    mutable next_offset : int;
    mutable key : Bytes.t; (* current key is [key.[0 .. key_len)] *)
    mutable key_len : int;
    mutable spare : Bytes.t;
    mutable common : int; (* [key] and [spare] agree on this many bytes *)
    mutable value_pos : int;
    mutable value_len : int;
    (* the entry before the current one, for {!step_back} *)
    mutable prev_offset : int;
    mutable prev_key_len : int;
    mutable prev_value_pos : int;
    mutable key_string : string; (* [key] as a string when [key_cached] *)
    mutable key_cached : bool;
  }

  let make block =
    {
      block;
      pos = 0;
      offset = block.limit;
      next_offset = block.limit;
      key = Bytes.empty;
      key_len = 0;
      spare = Bytes.empty;
      common = 0;
      value_pos = 0;
      value_len = 0;
      prev_offset = block.limit;
      prev_key_len = 0;
      prev_value_pos = 0;
      key_string = "";
      key_cached = false;
    }

  let reset it block =
    it.block <- block;
    it.offset <- block.limit;
    it.next_offset <- block.limit;
    it.key_len <- 0;
    it.common <- 0;
    it.key_cached <- false

  let valid it = it.offset < it.block.limit

  let key it =
    if not (valid it) then invalid_arg "Block.Iter.key: invalid iterator";
    if not it.key_cached then begin
      it.key_string <- Bytes.sub_string it.key 0 it.key_len;
      it.key_cached <- true
    end;
    it.key_string

  let value it =
    if not (valid it) then invalid_arg "Block.Iter.value: invalid iterator";
    String.sub it.block.data it.value_pos it.value_len

  let read_value it f =
    if not (valid it) then invalid_arg "Block.Iter.read_value: invalid iterator";
    f it.block.data ~pos:it.value_pos ~len:it.value_len

  (* LEB128 at the cursor, bounded by [limit]; the same checks as
     {!Varint.read}, raised as {!Corrupt}. *)
  let rec read_varint_from it data limit acc shift =
    let pos = it.pos in
    if pos >= limit then corrupt "varint truncated";
    if shift > 7 * (Varint.max_length - 1) then corrupt "varint too long";
    let byte = Char.code (String.unsafe_get data pos) in
    it.pos <- pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte >= 0x80 then read_varint_from it data limit acc (shift + 7)
    else if acc < 0 then corrupt "varint overflow"
    else acc

  let read_varint it limit = read_varint_from it it.block.data limit 0 0

  let value_handle it =
    if not (valid it) then invalid_arg "Block.Iter.value_handle: invalid iterator";
    let limit = it.value_pos + it.value_len in
    it.pos <- it.value_pos;
    let offset = read_varint it limit in
    let size = read_varint it limit in
    { Block_handle.offset; size }

  (* Both lengths come from the block, so neither the key nor the value
     may reach past the entry region. *)
  let check_extent b ~key_pos ~non_shared ~value_len =
    if non_shared > b.limit - key_pos || value_len > b.limit - key_pos - non_shared
    then corrupt "entry overruns block"

  (* Decode the entry at [off], which follows the current one. *)
  let decode_at it off =
    let b = it.block in
    it.pos <- off;
    let shared = read_varint it b.limit in
    let non_shared = read_varint it b.limit in
    let value_len = read_varint it b.limit in
    let key_pos = it.pos in
    check_extent b ~key_pos ~non_shared ~value_len;
    if shared > it.key_len then corrupt "shared prefix longer than previous key";
    let len = shared + non_shared in
    (* [spare] already agrees with [key] on its first [common] bytes. *)
    let kept =
      if Bytes.length it.spare < len then begin
        it.spare <- Bytes.create (Int.max len (2 * Bytes.length it.spare));
        0
      end
      else Int.min it.common shared
    in
    let k = it.spare in
    Bytes.blit it.key kept k kept (shared - kept);
    Bytes.blit_string b.data key_pos k shared non_shared;
    it.spare <- it.key;
    it.key <- k;
    it.common <- shared;
    it.prev_offset <- it.offset;
    it.prev_key_len <- it.key_len;
    it.prev_value_pos <- it.value_pos;
    it.offset <- off;
    it.key_len <- len;
    it.value_pos <- key_pos + non_shared;
    it.value_len <- value_len;
    it.next_offset <- key_pos + non_shared + value_len;
    it.key_cached <- false

  (* Undo the last {!decode_at}: the previous key is in [spare], and the
     previous entry ends where the current one starts. *)
  let step_back it =
    let k = it.key in
    it.key <- it.spare;
    it.spare <- k;
    it.next_offset <- it.offset;
    it.value_len <- it.offset - it.prev_value_pos;
    it.offset <- it.prev_offset;
    it.key_len <- it.prev_key_len;
    it.value_pos <- it.prev_value_pos;
    it.key_cached <- false

  let invalidate it = it.offset <- it.block.limit

  let advance it =
    if it.next_offset >= it.block.limit then invalidate it
    else decode_at it it.next_offset

  let seek_to_restart it i =
    let off = restart_offset it.block i in
    if off > it.block.limit then corrupt "restart offset past entries";
    it.next_offset <- off;
    it.offset <- it.block.limit;
    it.key_len <- 0;
    it.common <- 0;
    it.key_cached <- false

  (* Order the key of restart [i], stored whole, against [target] where
     it lies in the block. *)
  let restart_compare it i target =
    let b = it.block in
    it.pos <- restart_offset b i;
    if read_varint it b.limit <> 0 then corrupt "restart entry has shared bytes";
    let non_shared = read_varint it b.limit in
    let value_len = read_varint it b.limit in
    let key_pos = it.pos in
    check_extent b ~key_pos ~non_shared ~value_len;
    b.cmp.Comparator.compare_sub b.data key_pos non_shared target

  (* The buffer is only read for the duration of the call. *)
  let compare_current it target =
    it.block.cmp.Comparator.compare_sub
      (Bytes.unsafe_to_string it.key)
      0 it.key_len target

  let seek_to_first it =
    seek_to_restart it 0;
    advance it

  let next it = if valid it then advance it

  (* Binary search: the greatest restart whose key compares below
     [bound] against [target] (0: key < target, 1: key <= target), or
     restart 0. *)
  let restart_below it target bound =
    let lo = ref 0 and hi = ref (it.block.num_restarts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if restart_compare it mid target < bound then lo := mid else hi := mid - 1
    done;
    !lo

  let seek it target =
    seek_to_restart it (restart_below it target 0);
    advance it;
    while valid it && compare_current it target < 0 do
      advance it
    done

  let seek_le it target =
    let b = it.block in
    if b.limit = 0 || restart_compare it 0 target > 0 then invalidate it
    else begin
      seek_to_restart it (restart_below it target 1);
      advance it;
      (* Step forward while the next entry is still <= target; the first
         one past it is stepped back over. *)
      let stepping = ref true in
      while !stepping && it.next_offset < b.limit do
        decode_at it it.next_offset;
        if compare_current it target > 0 then begin
          step_back it;
          stepping := false
        end
      done
    end

  let seek_last it =
    seek_to_restart it (it.block.num_restarts - 1);
    advance it;
    while valid it && it.next_offset < it.block.limit do
      decode_at it it.next_offset
    done

  let fold f block acc =
    let it = make block in
    seek_to_first it;
    let rec go acc =
      if valid it then begin
        let k = key it and v = value it in
        next it;
        go (f k v acc)
      end
      else acc
    in
    go acc
end
