open Clsm_primitives

type file = Table_file.t Refcounted.t

type t = {
  l0 : file list;
  levels : file list array;
  runs : file array array;
  scan : (file array * string array) array;
      (* each level's non-empty files, and their largest keys *)
}

let empty ~num_levels =
  if num_levels < 2 then invalid_arg "Version.empty";
  {
    l0 = [];
    levels = Array.make (num_levels - 1) [];
    runs = Array.make (num_levels - 1) [||];
    scan = Array.make (num_levels - 1) ([||], [||]);
  }

let addref file =
  (* Files listed in a live version always have a positive count: the
     caller holds a reference while constructing the new version. *)
  let ok = Refcounted.try_incr file in
  assert ok

let scan_run files =
  let files =
    Array.of_list
      (List.filter
         (fun f -> String.length (Refcounted.value f).Table_file.smallest > 0)
         files)
  in
  (files, Array.map (fun f -> (Refcounted.value f).Table_file.largest) files)

let create ~l0 ~levels =
  List.iter addref l0;
  Array.iter (List.iter addref) levels;
  {
    l0;
    levels = Array.copy levels;
    runs = Array.map Array.of_list levels;
    scan = Array.map scan_run levels;
  }

let release t =
  List.iter Refcounted.decr t.l0;
  Array.iter (List.iter Refcounted.decr) t.levels

let files_by_level t =
  List.map (fun f -> (0, f)) t.l0
  @ List.concat
      (List.mapi
         (fun i files -> List.map (fun f -> (i + 1, f)) files)
         (Array.to_list t.levels))

let num_files t =
  List.length t.l0 + Array.fold_left (fun a l -> a + List.length l) 0 t.levels

let level_file_count t level =
  if level = 0 then List.length t.l0 else List.length t.levels.(level - 1)

let file_bytes files =
  List.fold_left (fun a f -> a + (Refcounted.value f).Table_file.size) 0 files

let level_bytes t level =
  if level = 0 then file_bytes t.l0 else file_bytes t.levels.(level - 1)

let total_bytes t =
  file_bytes t.l0 + Array.fold_left (fun a l -> a + file_bytes l) 0 t.levels

let user_range_contains tf user_key =
  let open Table_file in
  String.length tf.smallest > 0
  && Internal_key.compare_user_key tf.smallest user_key <= 0
  && Internal_key.compare_user_key tf.largest user_key >= 0

(* The block entry a lookup landed on, if it is a version of [user_key]:
   its timestamp and the entry, whose value is the one copy made. The key
   is read where the iterator holds it. *)
let read_hit user_key it =
  let ts = Clsm_sstable.Block.Iter.key_sub it Internal_key.ts_if_user_key user_key in
  if ts < 0 then None
  else Some (ts, Clsm_sstable.Block.Iter.read_value it Entry.decode_at)

(* Newest entry for [user_key] with ts <= probe's ts inside one file.
   A block that fails its checksum or does not decode raises
   {!Table_file.Corruption}, or with [on_corrupt] is reported and the
   file treated as a miss. The probe is a well-formed internal key, so
   a key too short or a timestamp out of range ([Invalid_argument],
   [Failure]) or an unknown entry tag is the file's fault too. *)
let search_file on_corrupt file ~user_key ~probe =
  let tf = Refcounted.value file in
  let table = tf.Table_file.table in
  if not (Clsm_sstable.Table.may_contain table user_key) then None
  else
    match
      Clsm_sstable.Table.find_last_le_with table probe (fun it ->
          read_hit user_key it)
    with
    | hit -> hit
    | exception
        ( Clsm_sstable.Table.Corrupt detail
        | Invalid_argument detail
        | Failure detail ) -> (
        match on_corrupt with
        | None -> raise (Table_file.typed_corruption tf detail)
        | Some report ->
            report tf detail;
            None)

(* L0 files may overlap, so every file is consulted and the newest
   matching version wins. *)
let rec search_l0 on_corrupt files best ~user_key ~probe =
  match files with
  | [] -> best
  | file :: rest ->
      let best =
        if not (user_range_contains (Refcounted.value file) user_key) then best
        else
          match (search_file on_corrupt file ~user_key ~probe, best) with
          | (Some (ts, _) as hit), Some (best_ts, _) when ts > best_ts -> hit
          | Some _, Some _ -> best
          | hit, None -> hit
          | None, best -> best
      in
      search_l0 on_corrupt rest best ~user_key ~probe

(* Index of the last file in a sorted run whose smallest user key is <=
   [user_key] (an empty file counts as smallest), or -1. *)
let last_starting_at_or_before files user_key =
  let lo = ref 0 and hi = ref (Array.length files) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let smallest = (Refcounted.value files.(mid)).Table_file.smallest in
    if
      String.length smallest = 0
      || Internal_key.compare_user_key smallest user_key <= 0
    then lo := mid + 1
    else hi := mid
  done;
  !lo - 1

(* Deeper levels are disjoint, but versions of one user key can straddle
   adjacent files; the later file holds the newer versions, so the files
   holding [user_key] are searched from file [j] backwards, newest range
   first, until one ends before [user_key]. *)
let rec search_run on_corrupt files j ~user_key ~probe =
  if j < 0 then None
  else
    let tf = Refcounted.value files.(j) in
    if String.length tf.Table_file.smallest = 0 then
      search_run on_corrupt files (j - 1) ~user_key ~probe
    else if Internal_key.compare_user_key tf.Table_file.largest user_key < 0
    then None
    else
      match search_file on_corrupt files.(j) ~user_key ~probe with
      | Some _ as hit -> hit
      | None -> search_run on_corrupt files (j - 1) ~user_key ~probe

let rec search_levels on_corrupt runs i ~user_key ~probe =
  if i >= Array.length runs then None
  else
    let files = runs.(i) in
    match
      search_run on_corrupt files
        (last_starting_at_or_before files user_key)
        ~user_key ~probe
    with
    | Some _ as hit -> hit
    | None -> search_levels on_corrupt runs (i + 1) ~user_key ~probe

let get ?on_corrupt t ~user_key ~snap_ts =
  (* With [on_corrupt], a file that fails its checksum is reported and
     then treated as a miss: the remaining overlapping data still
     answers, possibly with an older committed version — that is the
     containment contract, surfaced as [`Partial] health by the store.
     Without it, the typed {!Table_file.Corruption} propagates. *)
  let probe = Internal_key.make user_key snap_ts in
  match search_l0 on_corrupt t.l0 None ~user_key ~probe with
  | Some _ as hit -> hit
  | None -> search_levels on_corrupt t.runs 0 ~user_key ~probe

(* Table iterator that translates the sstable layer's stringly Corrupt
   into the typed {!Table_file.Corruption}. Scans do NOT transparently
   skip a rotten file — silently dropping a key range is a wrong answer;
   the caller gets the typed signal and the store queues a verdict. *)
let iter_of_file ?fill_cache file =
  let tf = Refcounted.value file in
  Iter.of_table ~corruption:(Table_file.typed_corruption tf) ?fill_cache
    tf.Table_file.table

let iters t =
  let level_iters =
    Array.fold_right
      (fun (files, largest) acc ->
        if Array.length files = 0 then acc
        else
          Iter.run ~cmp:Internal_key.compare_encoded ~largest (fun j ->
              iter_of_file files.(j))
          :: acc)
      t.scan []
  in
  List.map iter_of_file t.l0 @ level_iters

let find_file t number =
  let in_list l =
    List.find_opt (fun f -> (Refcounted.value f).Table_file.number = number) l
  in
  match in_list t.l0 with
  | Some _ as hit -> hit
  | None ->
      Array.fold_left
        (fun acc l -> match acc with Some _ -> acc | None -> in_list l)
        None t.levels

let apply t (edit : Version_edit.t) =
  let number f = (Refcounted.value f).Table_file.number in
  let keep f = not (List.mem (number f) edit.Version_edit.removed) in
  List.iter
    (fun (l, _) ->
      if l < 0 || l > Array.length t.levels then invalid_arg "Version.apply")
    edit.Version_edit.added;
  let added_at level =
    List.filter_map
      (fun (l, f) -> if l = level then Some f else None)
      edit.Version_edit.added
  in
  let by_smallest a b =
    Internal_key.compare_encoded (Refcounted.value a).Table_file.smallest
      (Refcounted.value b).Table_file.smallest
  in
  let levels =
    Array.mapi
      (fun i files ->
        match added_at (i + 1) with
        | [] -> List.filter keep files
        | added -> List.sort by_smallest (List.filter keep files @ added))
      t.levels
  in
  create ~l0:(added_at 0 @ List.filter keep t.l0) ~levels

let overlapping files ~smallest ~largest =
  let cmp = Internal_key.compare_encoded in
  List.filter
    (fun f ->
      let tf = Refcounted.value f in
      tf.Table_file.smallest <> ""
      && not
           (cmp tf.Table_file.largest smallest < 0
           || cmp tf.Table_file.smallest largest > 0))
    files

let files_range files =
  let cmp = Internal_key.compare_encoded in
  List.fold_left
    (fun acc f ->
      let tf = Refcounted.value f in
      if tf.Table_file.smallest = "" then acc
      else
        match acc with
        | None -> Some (tf.Table_file.smallest, tf.Table_file.largest)
        | Some (lo, hi) ->
            let lo =
              if cmp tf.Table_file.smallest lo < 0 then tf.Table_file.smallest
              else lo
            in
            let hi =
              if cmp tf.Table_file.largest hi > 0 then tf.Table_file.largest
              else hi
            in
            Some (lo, hi))
    None files

let validate t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let check_file level f =
    let tf = Refcounted.value f in
    match Clsm_sstable.Table.verify tf.Table_file.table with
    | Ok _ -> ()
    | Error msg ->
        problem "level %d file %06d: %s" level tf.Table_file.number msg
  in
  List.iter (check_file 0) t.l0;
  Array.iteri
    (fun i files ->
      let level = i + 1 in
      List.iter (check_file level) files;
      (* sorted and disjoint *)
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            let ta = Refcounted.value a and tb = Refcounted.value b in
            if
              Internal_key.compare_encoded ta.Table_file.largest
                tb.Table_file.smallest >= 0
            then
              problem "level %d files %06d and %06d overlap" level
                ta.Table_file.number tb.Table_file.number;
            pairs rest
        | [ _ ] | [] -> ()
      in
      pairs files)
    t.levels;
  List.rev !problems
