open Clsm_util
module Env = Clsm_env.Env

type t = {
  cmp : Comparator.t;
  block_size : int;
  bits_per_key : int;
  filter_key_of : string -> string;
  path : string; (* final path; the builder writes to [tmp_path] *)
  tmp_path : string;
  env : Env.t;
  writer : Env.writer;
  out : Buffer.t;
      (* emitted blocks and trailers not yet handed to [writer]; [offset]
         counts them *)
  data : Block_builder.t;
  index : Block_builder.t;
  mutable offset : int;
  mutable pending_index : (string * Block_handle.t) option;
  mutable filter_keys : string list; (* reversed, consecutive-deduped *)
  mutable entries : int;
  mutable smallest : string;
  mutable largest : string;
  mutable last_key : string option;
  mutable finished : bool;
}

(* Output reaches the writer in chunks of at least this many bytes (and
   once more at [finish]), not one small append per block and trailer. *)
let flush_bytes = 64 * 1024

let flush_out t =
  if Buffer.length t.out > 0 then begin
    t.writer.Env.w_append (Buffer.contents t.out);
    Buffer.clear t.out
  end

(* Crash safety: the table is built at [path ^ ".tmp"] and renamed to its
   final name only after the full contents are fsynced, so a [.sst] that
   exists is always complete; a crash mid-build leaves only a [.tmp] file
   that recovery deletes. *)
let create ?(block_size = 4096) ?(bits_per_key = 10)
    ?(filter_key_of = Fun.id) ?(env = Env.unix) ~cmp ~path () =
  if block_size < 64 then invalid_arg "Table_builder.create: block_size";
  let tmp_path = path ^ ".tmp" in
  {
    cmp;
    block_size;
    bits_per_key;
    filter_key_of;
    path;
    tmp_path;
    env;
    writer = env.Env.create_writer tmp_path;
    out = Buffer.create (flush_bytes + block_size);
    data = Block_builder.create ~restart_interval:1 ();
    index = Block_builder.create ~restart_interval:1 ();
    offset = 0;
    pending_index = None;
    filter_keys = [];
    entries = 0;
    smallest = "";
    largest = "";
    last_key = None;
    finished = false;
  }

(* Emit [payload] followed by the 5-byte trailer (block type byte, 0 =
   uncompressed, + masked CRC over payload+type); return its handle. *)
let emit_block t payload =
  let handle = { Block_handle.offset = t.offset; size = String.length payload } in
  Buffer.add_string t.out payload;
  Buffer.add_char t.out '\000';
  let crc = Crc32c.string ~init:(Crc32c.string payload) "\000" in
  Binary.write_fixed32 t.out (Crc32c.mask crc);
  t.offset <-
    t.offset + String.length payload + Table_format.block_trailer_length;
  if Buffer.length t.out >= flush_bytes then flush_out t;
  handle

let flush_data_block t =
  if not (Block_builder.is_empty t.data) then begin
    let last =
      match Block_builder.last_key t.data with
      | Some k -> k
      | None -> assert false
    in
    let payload = Block_builder.finish t.data in
    let handle = emit_block t payload in
    Block_builder.reset t.data;
    t.pending_index <- Some (last, handle)
  end

(* A block's index entry waits for the first key of the next block
   ([next], [None] at [finish]), so the comparator can pick a separator
   in between. *)
let write_pending_index t ~next =
  match t.pending_index with
  | None -> ()
  | Some (last, handle) ->
      let buf = Buffer.create 16 in
      Block_handle.encode buf handle;
      Block_builder.add t.index
        ~key:(t.cmp.Comparator.separator ~last ~next)
        ~value:(Buffer.contents buf);
      t.pending_index <- None

let add t ~key ~value =
  if t.finished then invalid_arg "Table_builder.add: finished";
  (match t.last_key with
  | Some last when t.cmp.Comparator.compare last key >= 0 ->
      invalid_arg "Table_builder.add: keys not strictly increasing"
  | Some _ | None -> ());
  write_pending_index t ~next:(Some key);
  if t.entries = 0 then t.smallest <- key;
  t.largest <- key;
  t.last_key <- Some key;
  t.entries <- t.entries + 1;
  let fkey = t.filter_key_of key in
  (match t.filter_keys with
  | prev :: _ when String.equal prev fkey -> ()
  | _ -> t.filter_keys <- fkey :: t.filter_keys);
  Block_builder.add t.data ~key ~value;
  if Block_builder.estimated_size t.data >= t.block_size then
    flush_data_block t

let num_entries t = t.entries

let estimated_file_size t =
  t.offset + Block_builder.estimated_size t.data

let finish t =
  if t.finished then invalid_arg "Table_builder.finish: already finished";
  t.finished <- true;
  flush_data_block t;
  write_pending_index t ~next:None;
  let data_bytes = t.offset in
  let filter = Bloom.create ~bits_per_key:t.bits_per_key t.filter_keys in
  let filter_handle = emit_block t (Bloom.encode filter) in
  let props =
    {
      Table_format.num_entries = t.entries;
      data_bytes;
      smallest = t.smallest;
      largest = t.largest;
    }
  in
  let props_handle = emit_block t (Table_format.encode_properties props) in
  let index_handle = emit_block t (Block_builder.finish t.index) in
  Buffer.add_string t.out
    (Table_format.encode_footer
       { Table_format.filter_handle; props_handle; index_handle });
  flush_out t;
  (* Publish order: contents durable first, then the rename that makes the
     table visible under its final name. *)
  t.writer.Env.w_fsync ();
  t.writer.Env.w_close ();
  t.env.Env.rename ~src:t.tmp_path ~dst:t.path;
  props

let abandon t =
  t.finished <- true;
  t.writer.Env.w_close ();
  try t.env.Env.remove t.tmp_path with _ -> ()
