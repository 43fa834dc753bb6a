open Clsm_util

exception Corrupt of string

let corrupt m = raise (Corrupt m)

type t = {
  data : string; (* the block is [data.[0 .. limit + 4 + 4 * num_restarts)] *)
  limit : int; (* end of entry region / start of restart array *)
  num_restarts : int;
  cmp : Comparator.t;
}

let restart_offset t i = Binary.get_fixed32 t.data ~pos:(t.limit + (4 * i))

(* Restart 0 opens the entry region and each later restart lies past
   the one before and inside the region, so a search reads a restart's
   entry with no further check on its offset. An empty block has one
   restart, at 0. *)
let parse ?len cmp data =
  let n = match len with None -> String.length data | Some n -> n in
  if n < 0 || n > String.length data then invalid_arg "Block.parse";
  if n < 4 then raise (Corrupt "block too small");
  let num_restarts = Binary.get_fixed32 data ~pos:(n - 4) in
  let trailer = 4 + (4 * num_restarts) in
  if num_restarts < 1 || trailer > n then raise (Corrupt "bad restart count");
  let t = { data; limit = n - trailer; num_restarts; cmp } in
  if restart_offset t 0 <> 0 then corrupt "first restart not at 0";
  for i = 1 to num_restarts - 1 do
    let off = restart_offset t i in
    if off <= restart_offset t (i - 1) then corrupt "restart offsets out of order";
    if off >= t.limit then corrupt "restart offset past entries"
  done;
  t

let num_restarts t = t.num_restarts
let size_bytes t = t.limit + 4 + (4 * t.num_restarts)

(* The offset that ends restart [i]'s run of entries. *)
let run_end t i = if i + 1 < t.num_restarts then restart_offset t (i + 1) else t.limit

module Iter = struct
  (* An entry is [shared; non_shared; value_len] as varints, then the
     [non_shared] key bytes that follow the [shared]-byte prefix of the
     previous key, then the value. Keys are rebuilt into two buffers that
     the iterator owns: a step forward writes the new key into [spare]
     and swaps. The two keys share the [shared] prefix of the newer one,
     so the next step copies only what the older one lacks. Nothing is
     allocated per entry once the buffers fit the block's longest key;
     [key] makes the key a string on demand, once per entry. *)
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

  (* The buffer is only read for the duration of the call. *)
  let key_sub it f x =
    if not (valid it) then invalid_arg "Block.Iter.key_sub: invalid iterator";
    f (Bytes.unsafe_to_string it.key) 0 it.key_len x

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
    it.offset <- off;
    it.key_len <- len;
    it.value_pos <- key_pos + non_shared;
    it.value_len <- value_len;
    it.next_offset <- key_pos + non_shared + value_len;
    it.key_cached <- false

  let invalidate it = it.offset <- it.block.limit

  let advance it =
    if it.next_offset >= it.block.limit then invalidate it
    else decode_at it it.next_offset

  (* Position on restart [i]'s entry. Its key is stored whole: with no
     previous key, a [shared] above 0 is refused. *)
  let decode_restart it i =
    it.key_len <- 0;
    it.common <- 0;
    decode_at it (restart_offset it.block i)

  (* Read the header of restart [i]'s entry, where it lies: leave
     [it.pos] on the key and [it.value_len] on the value's length, and
     return the key's length. *)
  let restart_header it i =
    let b = it.block in
    it.pos <- restart_offset b i;
    if read_varint it b.limit <> 0 then corrupt "restart entry has shared bytes";
    let non_shared = read_varint it b.limit in
    let value_len = read_varint it b.limit in
    check_extent b ~key_pos:it.pos ~non_shared ~value_len;
    it.value_len <- value_len;
    non_shared

  let compare_current it target =
    it.block.cmp.Comparator.compare_sub
      (Bytes.unsafe_to_string it.key)
      0 it.key_len target

  (* The restart search both seeks share: the number of restarts whose
     key orders below [bound] against [target] — below it for
     [bound = 0], at or below it for [bound = 1]. Each probe compares
     the key where it lies in the block. *)
  let restarts_before it target bound =
    let b = it.block in
    let lo = ref 0 and hi = ref (if b.limit = 0 then 0 else b.num_restarts) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let len = restart_header it mid in
      if b.cmp.Comparator.compare_sub b.data it.pos len target < bound then
        lo := mid + 1
      else hi := mid
    done;
    !lo

  let seek_to_first it =
    invalidate it;
    if it.block.limit > 0 then decode_restart it 0

  let next it = if valid it then advance it

  (* Restart [j]'s key is the first restart key >= [target]. When the
     run before it is that restart's entry alone, as in every block
     written at interval 1, restart [j] is the answer; otherwise the
     answer is in the run, or is restart [j]. *)
  let seek it target =
    invalidate it;
    let b = it.block in
    let j = restarts_before it target 0 in
    if j = 0 then seek_to_first it
    else
      let len = restart_header it (j - 1) in
      if it.pos + len + it.value_len = run_end b (j - 1) then begin
        if j < b.num_restarts then decode_restart it j
      end
      else begin
        decode_restart it (j - 1);
        advance it;
        while valid it && compare_current it target < 0 do
          advance it
        done
      end

  (* Steps on from the current entry while the next one, before [stop],
     is <= [target]: the number taken. Leaves the iterator on the first
     entry past [target] if it met one. *)
  let rec steps_le it target stop n =
    if it.next_offset >= stop then n
    else begin
      advance it;
      if compare_current it target <= 0 then steps_le it target stop (n + 1) else n
    end

  (* Restart [j - 1]'s key is the last restart key <= [target], and its
     entry is the answer when it ends its run, as in every block written
     at interval 1. A block written at a larger interval is scanned on
     through the run, and decoded again up to the last entry <=
     [target] if the scan stepped past it. *)
  let seek_le it target =
    invalidate it;
    let j = restarts_before it target 1 in
    if j > 0 then begin
      decode_restart it (j - 1);
      let stop = run_end it.block (j - 1) in
      if it.next_offset < stop then begin
        let n = steps_le it target stop 0 in
        if compare_current it target > 0 then begin
          decode_restart it (j - 1);
          for _ = 1 to n do
            advance it
          done
        end
      end
    end

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

(* One forward decode of the whole block, with every check a step
   makes. Each restart must also fall on an entry whose key is stored
   whole, as the restart search assumes. *)
let check_entries b =
  let it = Iter.make b in
  let restart = ref 0 in
  Iter.seek_to_first it;
  while Iter.valid it do
    if !restart < b.num_restarts && restart_offset b !restart = it.Iter.offset then begin
      if it.Iter.common <> 0 then corrupt "restart entry has shared bytes";
      incr restart
    end;
    Iter.advance it
  done;
  if b.limit > 0 && !restart < b.num_restarts then
    corrupt "restart offset not at an entry"
