open Clsm_util

type t = {
  restart_interval : int;
  buf : Buffer.t;
  mutable restarts : int list; (* reversed offsets *)
  mutable num_restarts : int; (* [List.length restarts] *)
  mutable count_since_restart : int;
  mutable entries : int;
  mutable last : string option;
}

let create ?(restart_interval = 16) () =
  if restart_interval < 1 then invalid_arg "Block_builder.create";
  {
    restart_interval;
    buf = Buffer.create 4096;
    restarts = [ 0 ];
    num_restarts = 1;
    count_since_restart = 0;
    entries = 0;
    last = None;
  }

let shared_prefix_length a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let add t ~key ~value =
  let shared =
    if t.count_since_restart >= t.restart_interval then begin
      t.restarts <- Buffer.length t.buf :: t.restarts;
      t.num_restarts <- t.num_restarts + 1;
      t.count_since_restart <- 0;
      0
    end
    else
      match t.last with
      | None -> 0
      | Some last -> shared_prefix_length last key
  in
  let non_shared = String.length key - shared in
  Varint.write t.buf shared;
  Varint.write t.buf non_shared;
  Varint.write t.buf (String.length value);
  Buffer.add_substring t.buf key shared non_shared;
  Buffer.add_string t.buf value;
  t.count_since_restart <- t.count_since_restart + 1;
  t.entries <- t.entries + 1;
  t.last <- Some key

let finish t =
  List.iter (fun off -> Binary.write_fixed32 t.buf off) (List.rev t.restarts);
  Binary.write_fixed32 t.buf t.num_restarts;
  Buffer.contents t.buf

let num_entries t = t.entries

let estimated_size t =
  Buffer.length t.buf + (4 * t.num_restarts) + 4

let is_empty t = t.entries = 0

let reset t =
  Buffer.clear t.buf;
  t.restarts <- [ 0 ];
  t.num_restarts <- 1;
  t.count_since_restart <- 0;
  t.entries <- 0;
  t.last <- None

let last_key t = t.last
