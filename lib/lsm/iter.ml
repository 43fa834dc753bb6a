type t = {
  seek_to_first : unit -> unit;
  seek : string -> unit;
  valid : unit -> bool;
  key : unit -> string;
  value : unit -> string;
  entry : unit -> Entry.t;
  next : unit -> unit;
}

let of_table ?(corruption = fun m -> Clsm_sstable.Table.Corrupt m) ?fill_cache
    table =
  let module T = Clsm_sstable.Table in
  let it = T.Iter.make ?fill_cache table in
  {
    seek_to_first =
      (fun () ->
        try T.Iter.seek_to_first it with T.Corrupt m -> raise (corruption m));
    seek =
      (fun target ->
        try T.Iter.seek it target with T.Corrupt m -> raise (corruption m));
    valid = (fun () -> T.Iter.valid it);
    key = (fun () -> T.Iter.key it);
    value = (fun () -> T.Iter.value it);
    entry = (fun () -> T.Iter.read_value it Entry.decode_at);
    next = (fun () -> try T.Iter.next it with T.Corrupt m -> raise (corruption m));
  }

let of_array arr =
  let pos = ref (Array.length arr) in
  let valid () = !pos >= 0 && !pos < Array.length arr in
  {
    seek_to_first = (fun () -> pos := 0);
    seek =
      (fun target ->
        (* First index with key >= target; the array is sorted under the
           caller's comparator, which must agree with String.compare only
           if the caller built it that way — we use a linear scan to stay
           comparator-agnostic. Arrays are test fixtures; O(n) is fine. *)
        let n = Array.length arr in
        let rec go i =
          if i >= n then pos := n
          else if fst arr.(i) >= target then pos := i
          else go (i + 1)
        in
        go 0);
    valid;
    key = (fun () -> fst arr.(!pos));
    value = (fun () -> snd arr.(!pos));
    entry = (fun () -> Entry.decode (snd arr.(!pos)));
    next = (fun () -> if valid () then incr pos);
  }

let of_sorted_list ~cmp entries =
  let arr = Array.of_list entries in
  let pos = ref (Array.length arr) in
  let valid () = !pos >= 0 && !pos < Array.length arr in
  {
    seek_to_first = (fun () -> pos := 0);
    seek =
      (fun target ->
        let n = Array.length arr in
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cmp (fst arr.(mid)) target < 0 then lo := mid + 1 else hi := mid
        done;
        pos := !lo);
    valid;
    key = (fun () -> fst arr.(!pos));
    value = (fun () -> snd arr.(!pos));
    entry = (fun () -> Entry.decode (snd arr.(!pos)));
    next = (fun () -> if valid () then incr pos);
  }

(* Stands in for the iterator of a run's file before one is entered. *)
let unpositioned =
  let invalid () = invalid_arg "Iter.run: invalid iterator" in
  {
    seek_to_first = ignore;
    seek = ignore;
    valid = (fun () -> false);
    key = invalid;
    value = invalid;
    entry = invalid;
    next = ignore;
  }

let run ~cmp ~largest open_file =
  let n = Array.length largest in
  let cur = ref n (* the file entered, [n] for none *)
  and it = ref unpositioned (* its iterator *) in
  let enter i =
    if i <> !cur then begin
      cur := i;
      it := if i < n then open_file i else unpositioned
    end
  in
  (* A file left exhausted hands over to the first entry of the next. *)
  let rec settle () =
    if !cur < n && not (!it.valid ()) then begin
      enter (!cur + 1);
      !it.seek_to_first ();
      settle ()
    end
  in
  let valid () = !cur < n && !it.valid () in
  {
    seek_to_first =
      (fun () ->
        enter 0;
        !it.seek_to_first ();
        settle ());
    seek =
      (fun target ->
        (* The first file whose largest key is >= target is the only one
           that can hold the first entry >= target. *)
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cmp largest.(mid) target < 0 then lo := mid + 1 else hi := mid
        done;
        enter !lo;
        !it.seek target;
        settle ());
    valid;
    key = (fun () -> !it.key ());
    value = (fun () -> !it.value ());
    entry = (fun () -> !it.entry ());
    next =
      (fun () ->
        if valid () then begin
          !it.next ();
          settle ()
        end);
  }

let clamp ?lo ?hi ~cmp it =
  (* Forward-only view of [lo, hi): entries below [lo] are skipped by
     seeking, iteration reports invalid at the first key >= [hi]. The
     underlying iterator may sit past [hi]; it is never advanced once the
     view is invalid, so several clamped views over fresh iterators of
     the same sources are independent. *)
  let below_hi () =
    match hi with None -> true | Some h -> cmp (it.key ()) h < 0
  in
  let valid () = it.valid () && below_hi () in
  let seek target =
    match lo with
    | Some l when cmp target l < 0 -> it.seek l
    | Some _ | None -> it.seek target
  in
  {
    seek_to_first =
      (fun () ->
        match lo with None -> it.seek_to_first () | Some l -> it.seek l);
    seek;
    valid;
    key = it.key;
    value = it.value;
    entry = it.entry;
    next = (fun () -> if valid () then it.next ());
  }

let fold f it acc =
  it.seek_to_first ();
  let rec go acc =
    if it.valid () then begin
      let k = it.key () and v = it.value () in
      it.next ();
      go (f k v acc)
    end
    else acc
  in
  go acc

let to_list it = List.rev (fold (fun k v acc -> (k, v) :: acc) it [])

(* Consume the versions of [uk] at the cursor and return the last one
   not above [snap_ts] (versions ascend by timestamp), or [Tombstone]
   when none is; only visible versions are read. *)
let rec last_visible it uk snap_ts best =
  if not (it.valid ()) then best
  else
    let k = it.key () in
    if Internal_key.compare_user_key k uk <> 0 then best
    else begin
      let best = if Internal_key.ts_of k <= snap_ts then it.entry () else best in
      it.next ();
      last_visible it uk snap_ts best
    end

let rec next_visible it ~snap_ts =
  if not (it.valid ()) then None
  else
    let uk = Internal_key.user_key_of (it.key ()) in
    match last_visible it uk snap_ts Entry.Tombstone with
    | Entry.Value v -> Some (uk, v)
    | Entry.Tombstone -> next_visible it ~snap_ts
