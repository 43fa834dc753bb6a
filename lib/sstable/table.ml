open Clsm_util
module Env = Clsm_env.Env

exception Corrupt of string

let next_table_id = Atomic.make 0

type t = {
  id : int;
  key_prefix : string;  (* "<id>:", the cache-key namespace of this table *)
  path : string;
  file : Env.random_file;
  cmp : Comparator.t;
  cache : Block.t Cache.t option;
  footer : Table_format.footer;
  index : Block.t;
  filter : Bloom.t;
  props : Table_format.properties;
  (* Accounting handles: the index block is pinned into the cache (direct
     reference, charged to the budget, never evicted) and the filter +
     properties weight is reserved, so the per-open-table RAM the reader
     keeps hot is visible in [Cache.stats]. *)
  index_pin : Block.t Cache.handle option;
  aux_reservation : string option;
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
  | '\001' -> (
      try Simple_compress.decompress payload
      with Invalid_argument m -> corrupt m)
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
  let id = Atomic.fetch_and_add next_table_id 1 in
  let index_pin, aux_reservation =
    match cache with
    | None -> (None, None)
    | Some cache ->
        let pin_key = Printf.sprintf "%d:index" id in
        let aux_key = Printf.sprintf "%d:aux" id in
        let aux_weight =
          footer.Table_format.filter_handle.Block_handle.size
          + footer.Table_format.props_handle.Block_handle.size
          + Table_format.footer_length
        in
        let pin = Cache.pin cache pin_key index in
        Cache.reserve cache aux_key aux_weight;
        (Some pin, Some aux_key)
  in
  {
    id;
    key_prefix = string_of_int id ^ ":";
    path;
    file;
    cmp;
    cache;
    footer;
    index;
    filter;
    props;
    index_pin;
    aux_reservation;
  }

let close t =
  (match (t.cache, t.index_pin) with
  | Some cache, Some pin -> Cache.unpin cache pin
  | _ -> ());
  (match (t.cache, t.aux_reservation) with
  | Some cache, Some key -> Cache.unreserve cache key
  | _ -> ());
  (* Retire this table's data blocks so they stop competing with live
     tables for cache space (handles held by in-flight reads keep their
     blocks alive). *)
  (match t.cache with
  | Some cache -> Cache.remove_matching cache ~prefix:t.key_prefix
  | None -> ());
  t.file.Env.rf_close ()
let path t = t.path
let properties t = t.props
let file_size t = t.file.Env.rf_length
let may_contain t filter_key = Bloom.mem t.filter filter_key

let load_block t handle =
  let decode () =
    try Block.parse t.cmp (read_block_raw t.file handle)
    with Block.Corrupt m -> raise (Corrupt m)
  in
  match t.cache with
  | None -> decode ()
  | Some cache ->
      let key = t.key_prefix ^ string_of_int handle.Block_handle.offset in
      Cache.find_or_add cache key decode

let handle_of_index_value v =
  let handle, _ = Block_handle.decode v ~pos:0 in
  handle

module Iter = struct
  type iter = {
    table : t;
    index_iter : Block.Iter.iter;
    mutable data_iter : Block.Iter.iter option;
    mutable seq_blocks : int;
        (* consecutive sequential (index [next]) block advances; reset by
           any seek, so point reads never trigger readahead *)
    mutable ra_until : int;
        (* file offset already covered by a readahead batch; nothing below
           this needs another batch *)
  }

  let make table =
    {
      table;
      index_iter = Block.Iter.make table.index;
      data_iter = None;
      seq_blocks = 0;
      ra_until = 0;
    }

  let block_end h =
    h.Block_handle.offset + h.Block_handle.size
    + Table_format.block_trailer_length

  (* Fetch up to [k] physically contiguous data blocks starting at the
     iterator's current index position in one pread, decode each and warm
     the cache. Any failure (short read, rot in one of the prefetched
     blocks) is swallowed: the scan falls back to on-demand single-block
     reads, which carry their own verification and error paths. *)
  let readahead_batch it cache k cur =
    let t = it.table in
    let probe = Block.Iter.make t.index in
    Block.Iter.seek probe (Block.Iter.key it.index_iter);
    let run = ref [ cur ] in
    let run_end = ref (block_end cur) in
    let n = ref 1 in
    Block.Iter.next probe;
    let continue = ref true in
    while !continue && !n < k && Block.Iter.valid probe do
      let h = handle_of_index_value (Block.Iter.value probe) in
      if h.Block_handle.offset = !run_end then begin
        run := h :: !run;
        run_end := block_end h;
        incr n;
        Block.Iter.next probe
      end
      else continue := false
    done;
    let handles = List.rev !run in
    it.ra_until <- !run_end;
    let key_of h = t.key_prefix ^ string_of_int h.Block_handle.offset in
    let missing =
      List.filter (fun h -> not (Cache.mem cache (key_of h))) handles
    in
    if List.length handles > 1 && missing <> [] then begin
      let base = cur.Block_handle.offset in
      let span = t.file.Env.rf_read ~pos:base ~len:(!run_end - base) in
      List.iter
        (fun h ->
          let payload =
            decode_block_image ~offset:h.Block_handle.offset
              ~pos:(h.Block_handle.offset - base) ~size:h.Block_handle.size span
          in
          Cache.insert cache (key_of h) (Block.parse t.cmp payload))
        missing;
      Cache.note_readahead cache ~blocks:(List.length missing)
    end

  let maybe_readahead it =
    match it.table.cache with
    | None -> ()
    | Some cache ->
        let k = Cache.readahead_blocks cache in
        if k > 0 && it.seq_blocks >= 1 && Block.Iter.valid it.index_iter
        then begin
          let cur = handle_of_index_value (Block.Iter.value it.index_iter) in
          if cur.Block_handle.offset >= it.ra_until then
            try readahead_batch it cache k cur with _ -> ()
        end

  let load_data_block it =
    if Block.Iter.valid it.index_iter then begin
      let handle = handle_of_index_value (Block.Iter.value it.index_iter) in
      it.data_iter <- Some (Block.Iter.make (load_block it.table handle))
    end
    else it.data_iter <- None

  (* Advance to the first valid entry at or after the current position,
     skipping exhausted data blocks. *)
  let rec skip_exhausted it =
    match it.data_iter with
    | Some di when Block.Iter.valid di -> ()
    | Some _ | None ->
        Block.Iter.next it.index_iter;
        if Block.Iter.valid it.index_iter then begin
          it.seq_blocks <- it.seq_blocks + 1;
          maybe_readahead it;
          load_data_block it;
          (match it.data_iter with
          | Some di -> Block.Iter.seek_to_first di
          | None -> ());
          skip_exhausted it
        end
        else it.data_iter <- None

  let seek_to_first it =
    it.seq_blocks <- 0;
    Block.Iter.seek_to_first it.index_iter;
    load_data_block it;
    (match it.data_iter with
    | Some di -> Block.Iter.seek_to_first di
    | None -> ());
    skip_exhausted it

  let seek it target =
    (* Index keys are the last key of each block, so the first index entry
       >= target points at the only block that can contain it. *)
    it.seq_blocks <- 0;
    Block.Iter.seek it.index_iter target;
    load_data_block it;
    (match it.data_iter with
    | Some di -> Block.Iter.seek di target
    | None -> ());
    skip_exhausted it

  let valid it =
    match it.data_iter with Some di -> Block.Iter.valid di | None -> false

  let key it =
    match it.data_iter with
    | Some di -> Block.Iter.key di
    | None -> invalid_arg "Table.Iter.key: invalid iterator"

  let value it =
    match it.data_iter with
    | Some di -> Block.Iter.value di
    | None -> invalid_arg "Table.Iter.value: invalid iterator"

  let next it =
    match it.data_iter with
    | Some di ->
        Block.Iter.next di;
        skip_exhausted it
    | None -> ()
end

let index_anchors t =
  let it = Block.Iter.make t.index in
  Block.Iter.seek_to_first it;
  let rec go acc =
    if Block.Iter.valid it then begin
      let k = Block.Iter.key it in
      let h = handle_of_index_value (Block.Iter.value it) in
      Block.Iter.next it;
      go ((k, h.Block_handle.size) :: acc)
    end
    else List.rev acc
  in
  go []

let find_first_ge t probe =
  let it = Iter.make t in
  Iter.seek it probe;
  if Iter.valid it then Some (Iter.key it, Iter.value it) else None

let find_last_le t probe =
  let index_it = Block.Iter.make t.index in
  let last_entry_of handle =
    let di = Block.Iter.make (load_block t handle) in
    Block.Iter.seek_last di;
    if Block.Iter.valid di then Some (Block.Iter.key di, Block.Iter.value di)
    else None
  in
  (* The first block whose last key >= probe is the only one that can hold
     entries in (prev_block.last, probe]; if it holds nothing <= probe, the
     answer is the last entry of the latest block entirely <= probe. *)
  Block.Iter.seek index_it probe;
  if Block.Iter.valid index_it then begin
    let handle = handle_of_index_value (Block.Iter.value index_it) in
    let di = Block.Iter.make (load_block t handle) in
    Block.Iter.seek_le di probe;
    if Block.Iter.valid di then Some (Block.Iter.key di, Block.Iter.value di)
    else begin
      (* Every entry of that block is > probe: fall back to the preceding
         block, i.e. the greatest index key <= probe. *)
      Block.Iter.seek_le index_it probe;
      if Block.Iter.valid index_it then
        last_entry_of (handle_of_index_value (Block.Iter.value index_it))
      else None
    end
  end
  else begin
    (* probe is past every block: answer is the last entry of the table. *)
    Block.Iter.seek_last index_it;
    if Block.Iter.valid index_it then
      last_entry_of (handle_of_index_value (Block.Iter.value index_it))
    else None
  end

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
      let h = handle_of_index_value (Block.Iter.value it) in
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
