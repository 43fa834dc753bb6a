open Clsm_util
module Env = Clsm_env.Env

exception Corrupt of string

(* Block-cache keys pack a table id above a block's file offset, so a
   key is one [int] and no two blocks of open tables share one. Offsets
   take [offset_bits] (files up to 1 TiB); ids take the remaining bits of
   a non-negative int. A closed table's id is recycled once its blocks
   have left the cache, so ids never run past [max_ids] unless that many
   tables are open at once. *)
let offset_bits = 40
let max_file_length = 1 lsl offset_bits
let max_ids = 1 lsl (Sys.int_size - 1 - offset_bits)
let block_key id offset = (id lsl offset_bits) lor offset

(* Ids of closed tables, reused first (a lock-free stack: a CAS on a
   fresh cons cell cannot suffer ABA), then never-used ones. *)
let free_ids = Atomic.make []
let next_id = Atomic.make 0

let rec take_id () =
  match Atomic.get free_ids with
  | id :: rest as ids ->
      if Atomic.compare_and_set free_ids ids rest then id else take_id ()
  | [] ->
      let id = Atomic.fetch_and_add next_id 1 in
      if id >= max_ids then
        invalid_arg "Table.open_file: too many open tables for cache keys";
      id

let rec free_id id =
  let ids = Atomic.get free_ids in
  if not (Atomic.compare_and_set free_ids ids (id :: ids)) then free_id id

(* A table opened with a cache: its id, and the key of the reservation
   that charges the decoded index, filter, properties and footer to the
   budget, so the per-open-table RAM the reader keeps hot is visible in
   [Cache.stats]. *)
type cached = { cache : Block.t Cache.t; id : int; aux_key : int }

(* The index block, decoded once at open. Data block [i] holds the keys
   up to its separator [seps.[sep_pos.(i) .. sep_pos.(i+1))], which is
   >= its last key and < the next block's first, and lies at
   [handles.(2i)] with [handles.(2i+1)] payload bytes. *)
type index = { seps : string; sep_pos : int array; handles : int array }

type t = {
  path : string;
  file : Env.random_file;
  cmp : Comparator.t;
  cached : cached option;
  closed : bool Atomic.t;
  footer : Table_format.footer;
  index : index;
  filter : Bloom.t;
  props : Table_format.properties;
}

let num_blocks ix = Array.length ix.sep_pos - 1
let block_offset ix i = ix.handles.(2 * i)
let block_size ix i = ix.handles.((2 * i) + 1)

let block_end ix i =
  block_offset ix i + block_size ix i + Table_format.block_trailer_length

let separator ix i =
  String.sub ix.seps ix.sep_pos.(i) (ix.sep_pos.(i + 1) - ix.sep_pos.(i))

let index_bytes ix =
  String.length ix.seps + (8 * (Array.length ix.sep_pos + Array.length ix.handles))

(* Verify one block image ([payload ^ trailer] as laid out on disk) of
   [size] payload bytes starting at [pos] in [raw] where it lies: the
   CRC of payload and type byte, then the type. Corrupt messages carry
   the block's byte offset so a corruption verdict can report exactly
   which block rotted. *)
let check_block_image ~offset ~pos ~size raw =
  let corrupt what =
    raise (Corrupt (Printf.sprintf "block@%d: %s" offset what))
  in
  if size < 0 then corrupt "handle out of bounds";
  let stored = Crc32c.unmask (Binary.get_fixed32 raw ~pos:(pos + size + 1)) in
  if Crc32c.sub raw ~pos ~len:(size + 1) <> stored then
    corrupt "checksum mismatch";
  match raw.[pos + size] with
  | '\000' -> ()
  | '\001' -> corrupt "compressed block (no codec)"
  | _ -> corrupt "unknown block type"

(* The verified payload of a block image, copied out of [raw]: for
   blocks that share their image with others (a readahead span) or are
   decoded into something else (index, filter, properties). *)
let decode_block_image ~offset ~pos ~size raw =
  check_block_image ~offset ~pos ~size raw;
  String.sub raw pos size

(* The image of the block of [size] payload bytes at [offset]: one
   [rf_read], one copy. *)
let read_block_image (file : Env.random_file) ~offset ~size =
  try file.Env.rf_read ~pos:offset ~len:(size + Table_format.block_trailer_length)
  with Invalid_argument _ ->
    raise (Corrupt (Printf.sprintf "block@%d: handle out of bounds" offset))

(* The verified payload of the auxiliary block [h] addresses. *)
let read_handle file { Block_handle.offset; size } =
  decode_block_image ~offset ~pos:0 ~size (read_block_image file ~offset ~size)

(* A block decode failure, named by the offset of the block. *)
let corrupt_at offset m = raise (Corrupt (Printf.sprintf "block@%d: %s" offset m))

(* One forward walk over the index block's entries. *)
let decode_index cmp payload =
  let it = Block.Iter.make (Block.parse cmp payload) in
  let seps = Buffer.create (String.length payload) in
  let sep_pos = ref [] and handles = ref [] in
  Block.Iter.seek_to_first it;
  while Block.Iter.valid it do
    sep_pos := Buffer.length seps :: !sep_pos;
    Buffer.add_string seps (Block.Iter.key it);
    let h = Block.Iter.value_handle it in
    handles := h.Block_handle.size :: h.Block_handle.offset :: !handles;
    Block.Iter.next it
  done;
  {
    seps = Buffer.contents seps;
    sep_pos = Array.of_list (List.rev (Buffer.length seps :: !sep_pos));
    handles = Array.of_list (List.rev !handles);
  }

(* Read and decode the blocks the footer addresses. A failure names the
   block: its offset when it fails its checksum, its role when it does
   not decode. *)
let read_aux_blocks cmp file footer =
  let index =
    try decode_index cmp (read_handle file footer.Table_format.index_handle)
    with Block.Corrupt m -> raise (Corrupt ("index block: " ^ m))
  in
  let filter =
    try Bloom.decode (read_handle file footer.Table_format.filter_handle)
    with Invalid_argument m -> raise (Corrupt ("filter block: " ^ m))
  in
  let props =
    try
      Table_format.decode_properties
        (read_handle file footer.Table_format.props_handle)
    with Varint.Corrupt m | Invalid_argument m ->
      raise (Corrupt ("properties block: " ^ m))
  in
  (index, filter, props)

let open_file ?cache ?(env = Env.unix) ~cmp path =
  let file = env.Env.open_random path in
  try
    let len = file.Env.rf_length in
    if Option.is_some cache && len > max_file_length then
      invalid_arg "Table.open_file: file too long for cache keys";
    if len < Table_format.footer_length then raise (Corrupt "file too short");
    let footer_str =
      file.Env.rf_read
        ~pos:(len - Table_format.footer_length)
        ~len:Table_format.footer_length
    in
    let footer =
      try Table_format.decode_footer footer_str
      with Failure m -> raise (Corrupt m)
    in
    let index, filter, props = read_aux_blocks cmp file footer in
    let cached =
      match cache with
      | None -> None
      | Some cache ->
          let id = take_id () in
          (* The filter's offset keys the reservation: no data block
             shares it. *)
          let aux_key =
            block_key id footer.Table_format.filter_handle.Block_handle.offset
          in
          Cache.reserve cache aux_key
            (index_bytes index
            + footer.Table_format.filter_handle.Block_handle.size
            + footer.Table_format.props_handle.Block_handle.size
            + Table_format.footer_length);
          Some { cache; id; aux_key }
    in
    {
      path;
      file;
      cmp;
      cached;
      closed = Atomic.make false;
      footer;
      index;
      filter;
      props;
    }
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    file.Env.rf_close ();
    Printexc.raise_with_backtrace e bt

let close t =
  if not (Atomic.exchange t.closed true) then begin
    (match t.cached with
    | Some c ->
        Cache.unreserve c.cache c.aux_key;
        (* Retire this table's data blocks so they stop competing with
           live tables for cache space (in-flight reads keep the blocks
           they already hold); only then may a new table take the id. *)
        Cache.remove_range c.cache ~lo:(block_key c.id 0)
          ~hi:(block_key (c.id + 1) 0);
        free_id c.id
    | None -> ());
    t.file.Env.rf_close ()
  end
let path t = t.path
let properties t = t.props
let file_size t = t.file.Env.rf_length
let may_contain t filter_key = Bloom.mem t.filter filter_key

let parse_block ?len t offset payload =
  try Block.parse ?len t.cmp payload with Block.Corrupt m -> corrupt_at offset m

(* Data block [i] read from the file, verified and parsed in the image
   [rf_read] returned: the read is the block's only copy. Every data
   block read outside a readahead span comes through here. *)
let read_data_block t i =
  let offset = block_offset t.index i and size = block_size t.index i in
  let image = read_block_image t.file ~offset ~size in
  check_block_image ~offset ~pos:0 ~size image;
  parse_block ~len:size t offset image

(* Data block [i], through the cache if the table has one. *)
let load_block t i =
  match t.cached with
  | None -> read_data_block t i
  | Some c ->
      Cache.find_or_add c.cache
        (block_key c.id (block_offset t.index i))
        (fun () -> read_data_block t i)

(* The first block whose separator is >= [target]: the only block that
   can hold the first entry >= [target]; [num_blocks] if none. *)
let index_seek t target =
  let ix = t.index and cmp = t.cmp.Comparator.compare_sub in
  let lo = ref 0 and hi = ref (num_blocks ix) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let start = ix.sep_pos.(mid) in
    if cmp ix.seps start (ix.sep_pos.(mid + 1) - start) target < 0 then
      lo := mid + 1
    else hi := mid
  done;
  !lo

(* What an iterator points at before its first block. *)
let empty_block =
  Block.parse Comparator.bytewise (Block_builder.finish (Block_builder.create ()))

module Iter = struct
  type iter = {
    table : t;
    fill_cache : bool; (* false: read every block past the cache *)
    data_iter : Block.Iter.iter; (* rebound to each data block in turn *)
    mutable block : int; (* the block [data_iter] reads; [num_blocks] past the end *)
    mutable seq_blocks : int;
        (* consecutive sequential block advances; reset by any seek, so
           point reads never trigger readahead *)
  }

  let make ?(fill_cache = true) table =
    {
      table;
      fill_cache;
      data_iter = Block.Iter.make empty_block;
      block = num_blocks table.index;
      seq_blocks = 0;
    }

  (* Fetch block [cur], which the scan is entering and which is not
     cached, together with the following physically contiguous data
     blocks (up to [k] in all) in one pread; decode and cache those not
     already resident. Any failure (short read, rot in one of the
     prefetched blocks) is swallowed: the scan falls back to an
     on-demand read of [cur], which carries its own verification and
     error paths. *)
  let readahead_batch it c k cur =
    let t = it.table in
    let ix = t.index in
    let last = ref cur in
    while
      !last + 1 < num_blocks ix
      && !last + 1 - cur < k
      && block_offset ix (!last + 1) = block_end ix !last
    do
      incr last
    done;
    if !last > cur then begin
      let base = block_offset ix cur in
      let span = t.file.Env.rf_read ~pos:base ~len:(block_end ix !last - base) in
      let fetched = ref 0 in
      for i = cur to !last do
        let offset = block_offset ix i in
        let key = block_key c.id offset in
        if i = cur || not (Cache.mem c.cache key) then begin
          let payload =
            decode_block_image ~offset ~pos:(offset - base)
              ~size:(block_size ix i) span
          in
          Cache.insert c.cache key (parse_block t offset payload);
          incr fetched
        end
      done;
      Cache.note_readahead c.cache ~blocks:!fetched
    end

  (* Read ahead only when a sequential scan enters a block that is not
     cached: a scan over resident blocks pays one lock-free probe per
     block crossing and never looks further. *)
  let maybe_readahead it i =
    match it.table.cached with
    | Some c when it.fill_cache ->
        let k = Cache.readahead_blocks c.cache in
        if
          k > 1 && it.seq_blocks >= 1
          && not (Cache.mem c.cache (block_key c.id (block_offset it.table.index i)))
        then (try readahead_batch it c k i with _ -> ())
    | Some _ | None -> ()

  (* Rebind the data iterator to block [i], or to nothing past the
     last. *)
  let enter it i =
    it.block <- i;
    if i < num_blocks it.table.index then
      Block.Iter.reset it.data_iter
        (if it.fill_cache then load_block it.table i
         else read_data_block it.table i)
    else Block.Iter.reset it.data_iter empty_block

  (* Advance to the first valid entry at or after the current position,
     skipping exhausted data blocks. *)
  let rec skip_exhausted it =
    if (not (Block.Iter.valid it.data_iter)) && it.block < num_blocks it.table.index
    then begin
      let next = it.block + 1 in
      if next < num_blocks it.table.index then begin
        it.seq_blocks <- it.seq_blocks + 1;
        maybe_readahead it next;
        enter it next;
        Block.Iter.seek_to_first it.data_iter;
        skip_exhausted it
      end
      else enter it next
    end

  (* A block decode error, raised as {!Corrupt} naming the block: only a
     data block bound to [data_iter] decodes. *)
  let corrupt_in it m = corrupt_at (block_offset it.table.index it.block) m

  let seek_to_first it =
    it.seq_blocks <- 0;
    try
      enter it 0;
      Block.Iter.seek_to_first it.data_iter;
      skip_exhausted it
    with Block.Corrupt m -> corrupt_in it m

  let seek it target =
    (* A separator is >= its block's last key and < the next block's
       first, so the first one >= target names the only block that can
       contain it. *)
    it.seq_blocks <- 0;
    try
      enter it (index_seek it.table target);
      Block.Iter.seek it.data_iter target;
      skip_exhausted it
    with Block.Corrupt m -> corrupt_in it m

  let next it =
    try
      Block.Iter.next it.data_iter;
      skip_exhausted it
    with Block.Corrupt m -> corrupt_in it m

  let valid it = Block.Iter.valid it.data_iter
  let key it = Block.Iter.key it.data_iter
  let value it = Block.Iter.value it.data_iter
  let read_value it f = Block.Iter.read_value it.data_iter f
end

let index_anchors t =
  List.init (num_blocks t.index) (fun i ->
      (separator t.index i, block_size t.index i))

let find_first_ge t probe =
  let it = Iter.make t in
  Iter.seek it probe;
  if Iter.valid it then Some (Iter.key it, Iter.value it) else None

(* Point lookups reuse one block iterator per domain, so after the first
   few calls its key buffers fit and a cache-hit lookup allocates
   nothing but what the caller copies out. A lookup that finds the
   domain's iterator busy (a systhread or fiber interleaved on the
   domain, or a reader that looks up again) takes a fresh one. *)
type lookup = {
  mutable busy : bool;
  mutable at : int; (* offset of the block being decoded, for errors *)
  data_it : Block.Iter.iter;
}

let new_lookup () = { busy = false; at = 0; data_it = Block.Iter.make empty_block }
let lookups = Domain.DLS.new_key new_lookup

let release_lookup l =
  (* Hold no block of this table past the call. *)
  Block.Iter.reset l.data_it empty_block;
  l.busy <- false

(* Leave [l.data_it] on the last entry <= probe of block [i]; false if
   there is none. *)
let seek_le_in t l i probe =
  l.at <- block_offset t.index i;
  Block.Iter.reset l.data_it (load_block t i);
  Block.Iter.seek_le l.data_it probe;
  Block.Iter.valid l.data_it

(* The first block whose separator is >= probe is the only one that can
   hold entries in (its predecessor's separator, probe]; if it holds
   nothing <= probe, or there is no such block, the answer is the last
   entry of the block before. Under the internal-key order's
   separators (a block's last user key at [max_ts]) every probe for a
   user key a block ends with stays in that block; a table whose
   separators are its last keys sends such a probe to the next block,
   which then takes the fallback. *)
let seek_last_le t l probe =
  let i = index_seek t probe in
  (i < num_blocks t.index && seek_le_in t l i probe)
  || (i > 0 && seek_le_in t l (i - 1) probe)

let find_last_le_with t probe f =
  let l = Domain.DLS.get lookups in
  let l = if l.busy then new_lookup () else l in
  l.busy <- true;
  match
    try if seek_last_le t l probe then f l.data_it else None
    with Block.Corrupt m -> corrupt_at l.at m
  with
  | r ->
      release_lookup l;
      r
  | exception e ->
      release_lookup l;
      raise e

let find_last_le t probe =
  find_last_le_with t probe (fun it -> Some (Block.Iter.key it, Block.Iter.value it))

let fold f t acc =
  let it = Iter.make t in
  Iter.seek_to_first it;
  let rec go acc =
    if Iter.valid it then begin
      let k = Iter.key it and v = Iter.value it in
      Iter.next it;
      go (f k v acc)
    end
    else acc
  in
  go acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

(* Re-read and re-decode the auxiliary blocks (index, bloom filter,
   properties) straight from disk. The in-memory copies were validated
   once at [open_file]; this catches rot that happened on the media since
   — the cache and the eager copies are deliberately bypassed. *)
let verify_aux_blocks t = ignore (read_aux_blocks t.cmp t.file t.footer)

type scrub_progress = { blocks_checked : int; next_block : int option }

let scrub ?(from_block = 0) ?max_blocks t =
  let n = num_blocks t.index in
  let from_block = max 0 from_block in
  let budget =
    match max_blocks with None -> max 1 (n + 3) | Some b -> max 1 b
  in
  try
    let checked = ref 0 in
    (* A pass starting at block 0 also re-verifies the footer-addressed
       auxiliary blocks (counted as three blocks against the budget). *)
    if from_block = 0 then begin
      verify_aux_blocks t;
      checked := !checked + 3
    end;
    let i = ref from_block in
    while !i < n && !checked < budget do
      ignore (read_data_block t !i : Block.t);
      incr checked;
      incr i
    done;
    Ok
      {
        blocks_checked = !checked;
        next_block = (if !i >= n then None else Some !i);
      }
  with Corrupt m -> Error m

let verify t =
  let cmp = t.cmp.Comparator.compare in
  let step k _ = function
    | Error _ as e -> e
    | Ok (count, prev) -> (
        match prev with
        | Some p when cmp p k >= 0 ->
            Error (Printf.sprintf "key order violation after %S" p)
        | Some _ | None -> Ok (count + 1, Some k))
  in
  let verify_block i acc =
    let block = load_block t i in
    try
      Block.check_entries block;
      Block.Iter.fold step block acc
    with Block.Corrupt m -> corrupt_at (block_offset t.index i) m
  in
  match
    verify_aux_blocks t;
    let acc = ref (Ok (0, None)) in
    for i = 0 to num_blocks t.index - 1 do
      acc := verify_block i !acc
    done;
    !acc
  with
  | exception Corrupt msg -> Error msg
  | Error _ as e -> e
  | Ok (count, last) ->
      if count <> t.props.Table_format.num_entries then
        Error
          (Printf.sprintf "entry count %d does not match properties %d" count
             t.props.Table_format.num_entries)
      else if count > 0 && Some t.props.Table_format.largest <> last then
        Error "largest key does not match properties"
      else Ok count
