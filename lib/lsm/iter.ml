type t = {
  seek_to_first : unit -> unit;
  seek : string -> unit;
  valid : unit -> bool;
  key : unit -> string;
  value : unit -> string;
  next : unit -> unit;
}

let of_table table =
  let module T = Clsm_sstable.Table in
  let it = T.Iter.make table in
  {
    seek_to_first = (fun () -> T.Iter.seek_to_first it);
    seek = (fun target -> T.Iter.seek it target);
    valid = (fun () -> T.Iter.valid it);
    key = (fun () -> T.Iter.key it);
    value = (fun () -> T.Iter.value it);
    next = (fun () -> T.Iter.next it);
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
    next = (fun () -> if valid () then incr pos);
  }

let concat subs =
  let subs = Array.of_list subs in
  let n = Array.length subs in
  let cur = ref n in
  (* Position [cur] on the first source at or after index [i] that is
     valid, rewinding each candidate to its first entry. *)
  let rec settle_from i =
    if i >= n then cur := n
    else begin
      subs.(i).seek_to_first ();
      if subs.(i).valid () then cur := i else settle_from (i + 1)
    end
  in
  let valid () = !cur < n && subs.(!cur).valid () in
  {
    seek_to_first = (fun () -> settle_from 0);
    seek =
      (fun target ->
        let rec go i =
          if i >= n then cur := n
          else begin
            subs.(i).seek target;
            if subs.(i).valid () then cur := i else go (i + 1)
          end
        in
        go 0);
    valid;
    key = (fun () -> subs.(!cur).key ());
    value = (fun () -> subs.(!cur).value ());
    next =
      (fun () ->
        if valid () then begin
          subs.(!cur).next ();
          if not (subs.(!cur).valid ()) then settle_from (!cur + 1)
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

let rec next_visible it ~snap_ts =
  if not (it.valid ()) then None
  else begin
    let uk = Internal_key.user_key_of (it.key ()) in
    let best = ref None in
    while it.valid () && String.equal (Internal_key.user_key_of (it.key ())) uk do
      if Internal_key.ts_of (it.key ()) <= snap_ts then best := Some (it.value ());
      it.next ()
    done;
    match Option.map Entry.decode !best with
    | Some (Entry.Value v) -> Some (uk, v)
    | Some Entry.Tombstone | None -> next_visible it ~snap_ts
  end
