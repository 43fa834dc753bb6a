open Clsm_lsm

module SL = Clsm_skiplist.Skiplist.Make (struct
  type t = string

  let compare = Internal_key.compare_encoded
end)

type t = { map : Entry.t SL.t; bytes : int Atomic.t; count : int Atomic.t }

(* Rough per-entry footprint of skip-list node + atomics, used only to
   decide when the component is "full". *)
let entry_overhead = 64

let create () =
  { map = SL.create (); bytes = Atomic.make 0; count = Atomic.make 0 }

let entry_size user_key entry =
  String.length user_key + Internal_key.ts_size + entry_overhead
  + (match entry with Entry.Value v -> String.length v | Entry.Tombstone -> 0)

let add t ~user_key ~ts entry =
  let ik = Internal_key.make user_key ts in
  if SL.insert t.map ik entry then begin
    ignore (Atomic.fetch_and_add t.bytes (entry_size user_key entry));
    Atomic.incr t.count
  end

let get t ~user_key ~snap_ts =
  match SL.find_le t.map (Internal_key.make user_key snap_ts) with
  | Some (ik, entry) when String.equal (Internal_key.user_key_of ik) user_key ->
      Some (Internal_key.ts_of ik, entry)
  | Some _ | None -> None

let latest_ts t ~user_key =
  match get t ~user_key ~snap_ts:Internal_key.max_ts with
  | Some (ts, _) -> Some ts
  | None -> None

type rmw_location = Entry.t SL.Raw.location

let locate_rmw t ~user_key =
  let loc = SL.Raw.locate t.map (Internal_key.probe user_key) in
  let prev_ts =
    match SL.Raw.prev_binding loc with
    | Some (ik, _) when String.equal (Internal_key.user_key_of ik) user_key ->
        Some (Internal_key.ts_of ik)
    | Some _ | None -> None
  in
  (prev_ts, loc)

let try_install t loc ~user_key ~ts entry =
  let ik = Internal_key.make user_key ts in
  if SL.Raw.try_insert t.map loc ik entry then begin
    ignore (Atomic.fetch_and_add t.bytes (entry_size user_key entry));
    Atomic.incr t.count;
    true
  end
  else false

let approximate_bytes t = Atomic.get t.bytes
let entry_count t = Atomic.get t.count
let is_empty t = SL.is_empty t.map

let iter t =
  let c = SL.Cursor.make t.map in
  {
    Iter.seek_to_first = (fun () -> SL.Cursor.seek_first c);
    seek = (fun target -> SL.Cursor.seek c target);
    valid = (fun () -> SL.Cursor.valid c);
    key = (fun () -> SL.Cursor.key c);
    value = (fun () -> Entry.encode (SL.Cursor.value c));
    entry = (fun () -> SL.Cursor.value c);
    next = (fun () -> SL.Cursor.next c);
  }

let fold_entries f t acc =
  SL.fold
    (fun ik entry acc ->
      f (Internal_key.user_key_of ik) (Internal_key.ts_of ik) entry acc)
    t.map acc
