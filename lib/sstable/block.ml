open Clsm_util

exception Corrupt of string

let corrupt m = raise (Corrupt m)

(* A key directory: entry [i]'s whole key is
   [keys.[pos.(2i) .. pos.(2i+2))] and the entry starts at byte
   [pos.(2i+1)] of the block; [pos.(2n)] ends the last of [n] keys. *)
type directory = { keys : string; pos : int array }

(* What a block holds until a point lookup builds its directory. *)
let no_directory = { keys = ""; pos = [||] }

type t = {
  data : string; (* the block is [data.[0 .. limit + 4 + 4 * num_restarts)] *)
  limit : int; (* end of entry region / start of restart array *)
  num_restarts : int;
  cmp : Comparator.t;
  dir : directory Atomic.t; (* [no_directory], then the directory *)
}

let parse ?len cmp data =
  let n = match len with None -> String.length data | Some n -> n in
  if n < 0 || n > String.length data then invalid_arg "Block.parse";
  if n < 4 then raise (Corrupt "block too small");
  let num_restarts = Binary.get_fixed32 data ~pos:(n - 4) in
  let trailer = 4 + (4 * num_restarts) in
  if num_restarts < 1 || trailer > n then raise (Corrupt "bad restart count");
  {
    data;
    limit = n - trailer;
    num_restarts;
    cmp;
    dir = Atomic.make no_directory;
  }

let num_restarts t = t.num_restarts
let size_bytes t = t.limit + 4 + (4 * t.num_restarts)
let restart_offset t i = Binary.get_fixed32 t.data ~pos:(t.limit + (4 * i))
let directory_bytes d = String.length d.keys + (8 * Array.length d.pos)

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

  let compare_current it target =
    it.block.cmp.Comparator.compare_sub
      (Bytes.unsafe_to_string it.key)
      0 it.key_len target

  let seek_to_first it =
    seek_to_restart it 0;
    advance it

  let next it = if valid it then advance it

  (* Binary search: the greatest restart whose key is below [target],
     or restart 0. *)
  let restart_below it target =
    let lo = ref 0 and hi = ref (it.block.num_restarts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if restart_compare it mid target < 0 then lo := mid else hi := mid - 1
    done;
    !lo

  let seek it target =
    seek_to_restart it (restart_below it target);
    advance it;
    while valid it && compare_current it target < 0 do
      advance it
    done

  (* One forward decode of the whole block, with every check a step
     makes. Each restart must also fall on an entry whose key is stored
     whole, as {!seek}'s restart search assumes. *)
  let build_directory b =
    let it = make b in
    let keys = Buffer.create 256 and pos = ref [] and restart = ref 0 in
    seek_to_first it;
    while valid it do
      if !restart < b.num_restarts && restart_offset b !restart = it.offset
      then begin
        if it.common <> 0 then corrupt "restart entry has shared bytes";
        incr restart
      end;
      pos := it.offset :: Buffer.length keys :: !pos;
      Buffer.add_subbytes keys it.key 0 it.key_len;
      advance it
    done;
    if !pos <> [] && !restart < b.num_restarts then
      corrupt "restart offset not at an entry";
    {
      keys = Buffer.contents keys;
      pos = Array.of_list (List.rev (Buffer.length keys :: !pos));
    }

  let add_directory b =
    if Atomic.get b.dir != no_directory then 0
    else begin
      let d = build_directory b in
      if Atomic.compare_and_set b.dir no_directory d then directory_bytes d
      else 0
    end

  (* Position on entry [i] of [d]: the key is copied whole from the
     directory and only the entry's header is decoded, for the value.
     The build checked the entry. *)
  let position_at it (d : directory) i =
    let b = it.block in
    let off = d.pos.((2 * i) + 1) in
    let key_start = d.pos.(2 * i) in
    let len = d.pos.((2 * i) + 2) - key_start in
    it.pos <- off;
    ignore (read_varint it b.limit : int);
    let non_shared = read_varint it b.limit in
    let value_len = read_varint it b.limit in
    if Bytes.length it.key < len then
      it.key <- Bytes.create (Int.max len (2 * Bytes.length it.key));
    Bytes.blit_string d.keys key_start it.key 0 len;
    it.common <- 0;
    it.offset <- off;
    it.key_len <- len;
    it.value_pos <- it.pos + non_shared;
    it.value_len <- value_len;
    it.next_offset <- it.value_pos + value_len;
    it.key_cached <- false

  let seek_le it target =
    let b = it.block in
    if Atomic.get b.dir == no_directory then ignore (add_directory b : int);
    let (d : directory) = Atomic.get b.dir in
    let cmp = b.cmp.Comparator.compare_sub in
    (* [lo] ends as the number of keys <= target. *)
    let lo = ref 0 and hi = ref ((Array.length d.pos - 1) / 2) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let start = d.pos.(2 * mid) in
      if cmp d.keys start (d.pos.((2 * mid) + 2) - start) target <= 0 then
        lo := mid + 1
      else hi := mid
    done;
    if !lo = 0 then invalidate it else position_at it d (!lo - 1)

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

let add_directory = Iter.add_directory
