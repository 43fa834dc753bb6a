open Clsm_lsm

module IKMap = Map.Make (struct
  type t = string

  let compare = Internal_key.compare_encoded
end)

type t = {
  map : Entry.t IKMap.t Atomic.t;
  write_mutex : Mutex.t;
  bytes : int Atomic.t;
  count : int Atomic.t;
}

let entry_overhead = 64

let create () =
  {
    map = Atomic.make IKMap.empty;
    write_mutex = Mutex.create ();
    bytes = Atomic.make 0;
    count = Atomic.make 0;
  }

let entry_size user_key entry =
  String.length user_key + Internal_key.ts_size + entry_overhead
  + (match entry with Entry.Value v -> String.length v | Entry.Tombstone -> 0)

let locked t f = Mutex.protect t.write_mutex f

let add t ~user_key ~ts entry =
  let ik = Internal_key.make user_key ts in
  locked t (fun () ->
      let m = Atomic.get t.map in
      if not (IKMap.mem ik m) then begin
        Atomic.set t.map (IKMap.add ik entry m);
        ignore (Atomic.fetch_and_add t.bytes (entry_size user_key entry));
        Atomic.incr t.count
      end)

let find_le m probe =
  IKMap.find_last_opt (fun k -> Internal_key.compare_encoded k probe <= 0) m

let get t ~user_key ~snap_ts =
  match find_le (Atomic.get t.map) (Internal_key.make user_key snap_ts) with
  | Some (ik, entry) when String.equal (Internal_key.user_key_of ik) user_key ->
      Some (Internal_key.ts_of ik, entry)
  | Some _ | None -> None

let latest_ts t ~user_key =
  match get t ~user_key ~snap_ts:Internal_key.max_ts with
  | Some (ts, _) -> Some ts
  | None -> None

(* The location is the observed snapshot: any intervening write publishes
   a new map, which the install detects by physical identity. Coarser than
   the skip-list's per-key conflict detection, but atomic. *)
type rmw_location = Entry.t IKMap.t

let locate_rmw t ~user_key =
  let m = Atomic.get t.map in
  let prev_ts =
    match find_le m (Internal_key.probe user_key) with
    | Some (ik, _) when String.equal (Internal_key.user_key_of ik) user_key ->
        Some (Internal_key.ts_of ik)
    | Some _ | None -> None
  in
  (prev_ts, m)

let try_install t loc ~user_key ~ts entry =
  locked t (fun () ->
      if Atomic.get t.map != loc then false
      else begin
        let ik = Internal_key.make user_key ts in
        Atomic.set t.map (IKMap.add ik entry loc);
        ignore (Atomic.fetch_and_add t.bytes (entry_size user_key entry));
        Atomic.incr t.count;
        true
      end)

let approximate_bytes t = Atomic.get t.bytes
let entry_count t = Atomic.get t.count
let is_empty t = IKMap.is_empty (Atomic.get t.map)

let iter t =
  (* Each (re)positioning captures a fresh snapshot; advancing walks the
     captured one — the same weak-consistency contract as the skip-list
     cursor. *)
  let seq = ref Seq.empty in
  let current = ref None in
  let step () =
    match !seq () with
    | Seq.Nil -> current := None
    | Seq.Cons (binding, rest) ->
        current := Some binding;
        seq := rest
  in
  let entry () =
    match !current with
    | Some (_, e) -> e
    | None -> invalid_arg "Cow_memtable.iter: invalid"
  in
  {
    Iter.seek_to_first =
      (fun () ->
        seq := IKMap.to_seq (Atomic.get t.map);
        step ());
    seek =
      (fun target ->
        seq := IKMap.to_seq_from target (Atomic.get t.map);
        step ());
    valid = (fun () -> !current <> None);
    key =
      (fun () ->
        match !current with
        | Some (k, _) -> k
        | None -> invalid_arg "Cow_memtable.iter: invalid");
    value = (fun () -> Entry.encode (entry ()));
    entry;
    next = (fun () -> if !current <> None then step ());
  }

let fold_entries f t acc =
  IKMap.fold
    (fun ik entry acc ->
      f (Internal_key.user_key_of ik) (Internal_key.ts_of ik) entry acc)
    (Atomic.get t.map) acc
