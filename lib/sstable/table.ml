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
   that charges the index, filter, properties and footer to the budget,
   so the per-open-table RAM the reader keeps hot is visible in
   [Cache.stats]. *)
type cached = { cache : Block.t Cache.t; id : int; aux_key : int }

type t = {
  path : string;
  file : Env.random_file;
  cmp : Comparator.t;
  cached : cached option;
  closed : bool Atomic.t;
  footer : Table_format.footer;
  index : Block.t;
  filter : Bloom.t;
  props : Table_format.properties;
}

(* Decode one block image ([payload ^ trailer] as laid out on disk) of
   [size] payload bytes starting at [pos] in [raw], verifying the CRC
   trailer in place before the payload is copied out. Corrupt messages
   carry the block's byte offset so containment/quarantine can report
   exactly which block rotted. *)
let decode_block_image ~offset ~pos ~size raw =
  let corrupt what =
    raise (Corrupt (Printf.sprintf "block@%d: %s" offset what))
  in
  if size < 0 then corrupt "handle out of bounds";
  let stored = Crc32c.unmask (Binary.get_fixed32 raw ~pos:(pos + size + 1)) in
  if Crc32c.sub raw ~pos ~len:(size + 1) <> stored then
    corrupt "checksum mismatch";
  let payload = String.sub raw pos size in
  match raw.[pos + size] with
  | '\000' -> payload
  | '\001' -> corrupt "compressed block (no codec)"
  | _ -> corrupt "unknown block type"

(* Read a block payload at [handle], verifying the CRC trailer. *)
let read_block_raw (file : Env.random_file) handle =
  let { Block_handle.offset; size } = handle in
  let raw =
    try
      file.Env.rf_read ~pos:offset
        ~len:(size + Table_format.block_trailer_length)
    with Invalid_argument _ ->
      raise (Corrupt (Printf.sprintf "block@%d: handle out of bounds" offset))
  in
  decode_block_image ~offset ~pos:0 ~size raw

let open_file ?cache ?(env = Env.unix) ~cmp path =
  let file = env.Env.open_random path in
  let len = file.Env.rf_length in
  if Option.is_some cache && len > max_file_length then begin
    file.Env.rf_close ();
    invalid_arg "Table.open_file: file too long for cache keys"
  end;
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
  let index =
    try Block.parse cmp (read_block_raw file footer.Table_format.index_handle)
    with Block.Corrupt m -> raise (Corrupt m)
  in
  let filter =
    try Bloom.decode (read_block_raw file footer.Table_format.filter_handle)
    with Invalid_argument m -> raise (Corrupt m)
  in
  let props =
    try
      Table_format.decode_properties
        (read_block_raw file footer.Table_format.props_handle)
    with Varint.Corrupt m | Invalid_argument m -> raise (Corrupt m)
  in
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
          (Block.size_bytes index
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

let load_block t handle =
  let decode () =
    try Block.parse t.cmp (read_block_raw t.file handle)
    with Block.Corrupt m -> raise (Corrupt m)
  in
  match t.cached with
  | None -> decode ()
  | Some c ->
      Cache.find_or_add c.cache (block_key c.id handle.Block_handle.offset) decode

(* A block decode failure, named by the offset of the block. *)
let corrupt_at offset m = raise (Corrupt (Printf.sprintf "block@%d: %s" offset m))

let index_offset t = t.footer.Table_format.index_handle.Block_handle.offset

(* What an iterator points at before its first block. *)
let empty_block =
  Block.parse Comparator.bytewise (Block_builder.finish (Block_builder.create ()))

module Iter = struct
  type iter = {
    table : t;
    index_iter : Block.Iter.iter;
    data_iter : Block.Iter.iter; (* rebound to each data block in turn *)
    mutable at : int; (* offset of the block being decoded, for errors *)
    mutable seq_blocks : int;
        (* consecutive sequential (index [next]) block advances; reset by
           any seek, so point reads never trigger readahead *)
  }

  let make table =
    {
      table;
      index_iter = Block.Iter.make table.index;
      data_iter = Block.Iter.make empty_block;
      at = index_offset table;
      seq_blocks = 0;
    }

  let block_end h =
    h.Block_handle.offset + h.Block_handle.size
    + Table_format.block_trailer_length

  (* Fetch the block [cur] the scan is entering, which is not cached,
     together with the following physically contiguous data blocks (up
     to [k] in all) in one pread; decode and cache those not already
     resident. Any failure (short read, rot in one of the prefetched
     blocks) is swallowed: the scan falls back to an on-demand read of
     [cur], which carries its own verification and error paths. *)
  let readahead_batch it c k cur =
    let t = it.table in
    let probe = Block.Iter.make t.index in
    Block.Iter.seek probe (Block.Iter.key it.index_iter);
    Block.Iter.next probe;
    (* The blocks after [cur] that follow it on disk, nearest first. *)
    let rec followers n run_end acc =
      if n >= k || not (Block.Iter.valid probe) then (run_end, List.rev acc)
      else
        let h = Block.Iter.value_handle probe in
        if h.Block_handle.offset <> run_end then (run_end, List.rev acc)
        else begin
          Block.Iter.next probe;
          followers (n + 1) (block_end h) (h :: acc)
        end
    in
    let run_end, rest = followers 1 (block_end cur) [] in
    if rest <> [] then begin
      let key_of h = block_key c.id h.Block_handle.offset in
      let missing =
        cur :: List.filter (fun h -> not (Cache.mem c.cache (key_of h))) rest
      in
      let base = cur.Block_handle.offset in
      let span = t.file.Env.rf_read ~pos:base ~len:(run_end - base) in
      List.iter
        (fun h ->
          let payload =
            decode_block_image ~offset:h.Block_handle.offset
              ~pos:(h.Block_handle.offset - base) ~size:h.Block_handle.size span
          in
          Cache.insert c.cache (key_of h) (Block.parse t.cmp payload))
        missing;
      Cache.note_readahead c.cache ~blocks:(List.length missing)
    end

  (* Read ahead only when a sequential scan enters a block that is not
     cached: a scan over resident blocks pays one lock-free probe per
     block crossing and never looks further. *)
  let maybe_readahead it =
    match it.table.cached with
    | None -> ()
    | Some c ->
        let k = Cache.readahead_blocks c.cache in
        if k > 1 && it.seq_blocks >= 1 && Block.Iter.valid it.index_iter
        then begin
          let cur = Block.Iter.value_handle it.index_iter in
          if not (Cache.mem c.cache (block_key c.id cur.Block_handle.offset))
          then try readahead_batch it c k cur with _ -> ()
        end

  let load_data_block it =
    if Block.Iter.valid it.index_iter then begin
      let handle = Block.Iter.value_handle it.index_iter in
      Block.Iter.reset it.data_iter (load_block it.table handle);
      it.at <- handle.Block_handle.offset
    end
    else Block.Iter.reset it.data_iter empty_block

  (* Advance to the first valid entry at or after the current position,
     skipping exhausted data blocks. *)
  let rec skip_exhausted it =
    if not (Block.Iter.valid it.data_iter) then begin
      it.at <- index_offset it.table;
      Block.Iter.next it.index_iter;
      if Block.Iter.valid it.index_iter then begin
        it.seq_blocks <- it.seq_blocks + 1;
        maybe_readahead it;
        load_data_block it;
        Block.Iter.seek_to_first it.data_iter;
        skip_exhausted it
      end
      else Block.Iter.reset it.data_iter empty_block
    end

  (* Block decode errors, raised as {!Corrupt} naming the block. *)
  let seek_to_first it =
    try
      it.seq_blocks <- 0;
      it.at <- index_offset it.table;
      Block.Iter.seek_to_first it.index_iter;
      load_data_block it;
      Block.Iter.seek_to_first it.data_iter;
      skip_exhausted it
    with Block.Corrupt m -> corrupt_at it.at m

  let seek it target =
    (* Index keys are the last key of each block, so the first index entry
       >= target points at the only block that can contain it. *)
    try
      it.seq_blocks <- 0;
      it.at <- index_offset it.table;
      Block.Iter.seek it.index_iter target;
      load_data_block it;
      Block.Iter.seek it.data_iter target;
      skip_exhausted it
    with Block.Corrupt m -> corrupt_at it.at m

  let next it =
    try
      Block.Iter.next it.data_iter;
      skip_exhausted it
    with Block.Corrupt m -> corrupt_at it.at m

  let valid it = Block.Iter.valid it.data_iter
  let key it = Block.Iter.key it.data_iter
  let value it = Block.Iter.value it.data_iter
  let read_value it f = Block.Iter.read_value it.data_iter f
end

let index_anchors t =
  let it = Block.Iter.make t.index in
  let rec go acc =
    if Block.Iter.valid it then begin
      let k = Block.Iter.key it in
      let h = Block.Iter.value_handle it in
      Block.Iter.next it;
      go ((k, h.Block_handle.size) :: acc)
    end
    else List.rev acc
  in
  try
    Block.Iter.seek_to_first it;
    go []
  with Block.Corrupt m -> corrupt_at (index_offset t) m

let find_first_ge t probe =
  let it = Iter.make t in
  Iter.seek it probe;
  if Iter.valid it then Some (Iter.key it, Iter.value it) else None

(* Point lookups reuse one pair of block iterators per domain, so after
   the first few calls their key buffers fit and a cache-hit lookup
   allocates nothing but what the caller copies out. A lookup that finds
   the domain's pair busy (a systhread or fiber interleaved on the
   domain, or a reader that looks up again) takes a fresh pair. *)
type lookup = {
  mutable busy : bool;
  mutable at : int; (* offset of the block being decoded, for errors *)
  index_it : Block.Iter.iter;
  data_it : Block.Iter.iter;
}

let new_lookup () =
  {
    busy = false;
    at = 0;
    index_it = Block.Iter.make empty_block;
    data_it = Block.Iter.make empty_block;
  }

let lookups = Domain.DLS.new_key new_lookup

let release_lookup l =
  (* Hold no block of this table past the call. *)
  Block.Iter.reset l.index_it empty_block;
  Block.Iter.reset l.data_it empty_block;
  l.busy <- false

let load_data t l handle =
  Block.Iter.reset l.data_it (load_block t handle);
  l.at <- handle.Block_handle.offset

(* Leave [l.data_it] on the last entry of the block at [handle]. *)
let seek_last_of t l handle =
  load_data t l handle;
  Block.Iter.seek_last l.data_it;
  Block.Iter.valid l.data_it

(* Leave [l.data_it] on the last entry <= probe; false if there is none.
   The first block whose last key >= probe is the only one that can hold
   entries in (prev_block.last, probe]; if it holds nothing <= probe, the
   answer is the last entry of the latest block entirely <= probe. *)
let seek_last_le t l probe =
  let ii = l.index_it in
  Block.Iter.reset ii t.index;
  l.at <- index_offset t;
  Block.Iter.seek ii probe;
  if Block.Iter.valid ii then begin
    load_data t l (Block.Iter.value_handle ii);
    Block.Iter.seek_le l.data_it probe;
    Block.Iter.valid l.data_it
    ||
    (* Every entry of that block is > probe: fall back to the preceding
       block, i.e. the greatest index key <= probe. *)
    begin
      l.at <- index_offset t;
      Block.Iter.seek_le ii probe;
      Block.Iter.valid ii && seek_last_of t l (Block.Iter.value_handle ii)
    end
  end
  else begin
    (* probe is past every block: answer is the last entry of the table. *)
    Block.Iter.seek_last ii;
    Block.Iter.valid ii && seek_last_of t l (Block.Iter.value_handle ii)
  end

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
let verify_aux_blocks t =
  try
    ignore
      (Block.parse t.cmp (read_block_raw t.file t.footer.Table_format.index_handle));
    ignore (Bloom.decode (read_block_raw t.file t.footer.Table_format.filter_handle));
    ignore
      (Table_format.decode_properties
         (read_block_raw t.file t.footer.Table_format.props_handle));
    Ok ()
  with
  | Corrupt m -> Error m
  | Block.Corrupt m -> Error ("index block: " ^ m)
  | Invalid_argument m -> Error ("filter block: " ^ m)
  | Varint.Corrupt m -> Error ("properties block: " ^ m)

(* Data-block handles in index (= key) order, straight from the in-memory
   index. *)
let data_block_handles t =
  let it = Block.Iter.make t.index in
  Block.Iter.seek_to_first it;
  let rec go acc =
    if Block.Iter.valid it then begin
      let h = Block.Iter.value_handle it in
      Block.Iter.next it;
      go (h :: acc)
    end
    else Array.of_list (List.rev acc)
  in
  go []

type scrub_progress = { blocks_checked : int; next_block : int option }

let scrub ?(from_block = 0) ?max_blocks t =
  let handles = data_block_handles t in
  let n = Array.length handles in
  let from_block = max 0 from_block in
  let budget =
    match max_blocks with None -> max 1 (n + 3) | Some b -> max 1 b
  in
  try
    let checked = ref 0 in
    (* A pass starting at block 0 also re-verifies the footer-addressed
       auxiliary blocks (counted as three blocks against the budget). *)
    (if from_block = 0 then
       match verify_aux_blocks t with
       | Ok () -> checked := !checked + 3
       | Error m -> raise (Corrupt m));
    let i = ref from_block in
    while !i < n && !checked < budget do
      ignore (Block.parse t.cmp (read_block_raw t.file handles.(!i)));
      incr checked;
      incr i
    done;
    Ok
      {
        blocks_checked = !checked;
        next_block = (if !i >= n then None else Some !i);
      }
  with
  | Corrupt m -> Error m
  | Block.Corrupt m -> Error m

let verify t =
  let cmp = t.cmp.Comparator.compare in
  match
    match verify_aux_blocks t with
    | Error _ as e -> e
    | Ok () ->
        fold
          (fun k _ state ->
            match state with
            | Error _ as e -> e
            | Ok (count, prev) -> (
                match prev with
                | Some p when cmp p k >= 0 ->
                    Error (Printf.sprintf "key order violation after %S" p)
                | Some _ | None -> Ok (count + 1, Some k)))
          t
          (Ok (0, None))
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
