open Clsm_primitives

type task = {
  src_level : int;
  inputs_lo : Version.file list;
  inputs_hi : Version.file list;
  target_level : int;
  drop_tombstones : bool;
}

let deeper_levels_empty (v : Version.t) target_level =
  (* levels.(i) is level i+1 *)
  let deepest = Array.length v.Version.levels in
  let rec go level =
    level > deepest
    || (v.Version.levels.(level - 1) = [] && go (level + 1))
  in
  go (target_level + 1)

(* Files of [level] whose USER-key range meets that of [files]. Versions
   of one user key can straddle adjacent files of a level (timestamps
   ascend within a key), and an internal-key overlap would leave such a
   sibling behind: at the source level it would then shadow the moved
   newer versions on reads, and at the target level a tombstone dropped
   as "nothing deeper" would resurrect the versions it still holds. *)
let overlapping_user_keys level files =
  match Version.files_range files with
  | None -> []
  | Some (smallest, largest) ->
      Version.overlapping level
        ~smallest:(Internal_key.make (Internal_key.user_key_of smallest) 0)
        ~largest:(Internal_key.probe (Internal_key.user_key_of largest))

let pick ~cfg ?(level_pointers = [||]) ?(skip = fun ~src:_ ~target:_ -> false)
    ?(pin_tombstones = false) (v : Version.t) =
  let mk ~src_level ~inputs_lo ~target_level =
    let inputs_lo =
      if src_level = 0 then inputs_lo
      else
        let level = v.Version.levels.(src_level - 1) in
        let rec close files =
          let wider = overlapping_user_keys level files in
          if List.length wider = List.length files then files else close wider
        in
        close inputs_lo
    in
    let inputs_hi =
      if target_level - 1 < Array.length v.Version.levels then
        overlapping_user_keys v.Version.levels.(target_level - 1) inputs_lo
      else []
    in
    {
      src_level;
      inputs_lo;
      inputs_hi;
      target_level;
      drop_tombstones =
        (not pin_tombstones) && deeper_levels_empty v target_level;
    }
  in
  if
    List.length v.Version.l0 >= cfg.Lsm_config.l0_compaction_trigger
    && not (skip ~src:0 ~target:1)
  then Some (mk ~src_level:0 ~inputs_lo:v.Version.l0 ~target_level:1)
  else begin
    let num_levels = Array.length v.Version.levels + 1 in
    let rec find level =
      if level >= num_levels - 1 then None
        (* the deepest level has no deeper target; let it grow *)
      else if skip ~src:level ~target:(level + 1) then find (level + 1)
      else if
        Version.level_bytes v level > Lsm_config.max_bytes_for_level cfg level
      then
        match v.Version.levels.(level - 1) with
        | [] -> find (level + 1)
        | (first :: _) as files ->
            (* round-robin through the level's key space (LevelDB's
               compact_pointer): resume after the last compacted key. *)
            let pointer =
              if level - 1 < Array.length level_pointers then
                level_pointers.(level - 1)
              else ""
            in
            let chosen =
              if pointer = "" then first
              else
                match
                  List.find_opt
                    (fun f ->
                      Internal_key.compare_encoded
                        (Clsm_primitives.Refcounted.value f).Table_file.smallest
                        pointer
                      > 0)
                    files
                with
                | Some f -> f
                | None -> first
            in
            Some (mk ~src_level:level ~inputs_lo:[ chosen ]
                    ~target_level:(level + 1))
      else find (level + 1)
    in
    find 1
  end

(* [versions]: (ts, is_tombstone) pairs, ascending ts. *)
let keep_timestamps ~snapshots ~drop_tombstones versions =
  let arr = Array.of_list versions in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let keep = Array.make n false in
    (* The newest version is always visible to future reads. *)
    keep.(n - 1) <- true;
    (* Each snapshot pins the newest version at or below its timestamp. *)
    List.iter
      (fun s ->
        let rec last_le i best =
          if i = n then best
          else if fst arr.(i) <= s then last_le (i + 1) (Some i)
          else best
        in
        match last_le 0 None with
        | Some i -> keep.(i) <- true
        | None -> ())
      snapshots;
    let kept = ref [] in
    for i = n - 1 downto 0 do
      if keep.(i) then kept := arr.(i) :: !kept
    done;
    (* With nothing below the target level, a deletion marker that is the
       oldest surviving entry denotes "never existed" and can go. *)
    let rec drop_leading = function
      | (_, true) :: rest when drop_tombstones -> drop_leading rest
      | l -> l
    in
    List.map fst (drop_leading !kept)
  end

let filter_group ~snapshots ~drop_tombstones versions =
  keep_timestamps ~snapshots ~drop_tombstones
    (List.map (fun (ts, e) -> (ts, Entry.is_tombstone e)) versions)

(* Accumulates output tables, cutting at the target file size. *)
type output_state = {
  cfg : Lsm_config.t;
  dir : string;
  cache : Clsm_sstable.Block.t Clsm_sstable.Cache.t option;
  env : Clsm_env.Env.t;
  alloc_number : unit -> int;
  mutable builder : (int * Clsm_sstable.Table_builder.t) option;
  mutable files : Version.file list; (* reversed *)
}

let builder_of st =
  match st.builder with
  | Some (_, b) -> b
  | None ->
      let number = st.alloc_number () in
      let b =
        Clsm_sstable.Table_builder.create
          ~block_size:st.cfg.Lsm_config.block_size
          ~bits_per_key:st.cfg.Lsm_config.bits_per_key
          ~compress:st.cfg.Lsm_config.compress
          ~filter_key_of:Internal_key.user_key_of ~cmp:Internal_key.comparator
          ~env:st.env
          ~path:(Table_file.table_path ~dir:st.dir number)
          ()
      in
      st.builder <- Some (number, b);
      b

let finish_current st =
  match st.builder with
  | None -> ()
  | Some (number, b) ->
      st.builder <- None;
      if Clsm_sstable.Table_builder.num_entries b = 0 then
        Clsm_sstable.Table_builder.abandon b
      else begin
        ignore (Clsm_sstable.Table_builder.finish b);
        let tf =
          Table_file.open_number ?cache:st.cache ~env:st.env ~dir:st.dir number
        in
        st.files <-
          Refcounted.create ~release:Table_file.release tf :: st.files
      end

(* A merge that dies mid-run (ENOSPC, crash point) must not leak its
   partial outputs: the in-flight builder's temp file is dropped and the
   already-finished tables are closed and deleted (all best-effort — any
   survivor is an orphan the next recovery collects). *)
let cleanup_failed st =
  (match st.builder with
  | Some (_, b) -> ( try Clsm_sstable.Table_builder.abandon b with _ -> ())
  | None -> ());
  st.builder <- None;
  List.iter
    (fun f ->
      Table_file.mark_obsolete (Refcounted.value f);
      Refcounted.decr f)
    st.files;
  st.files <- []

let emit st ~key ~value =
  let b = builder_of st in
  Clsm_sstable.Table_builder.add b ~key ~value;
  if
    Clsm_sstable.Table_builder.estimated_file_size b
    >= st.cfg.Lsm_config.target_file_size
  then finish_current st

let write_sorted_run ~cfg ~dir ?cache ?(env = Clsm_env.Env.unix) ~alloc_number
    ~snapshots ~drop_tombstones iter =
  let snapshots = List.sort_uniq Int.compare snapshots in
  let st = { cfg; dir; cache; env; alloc_number; builder = None; files = [] } in
  iter.Iter.seek_to_first ();
  (* Collect one user key's versions (ascending ts), deduplicating exact
     internal-key ties from merge inputs, then GC and emit. *)
  let next_group () =
    if not (iter.Iter.valid ()) then None
    else begin
      let first_key = iter.Iter.key () in
      let user_key = Internal_key.user_key_of first_key in
      let rec collect acc last_ik =
        if not (iter.Iter.valid ()) then List.rev acc
        else
          let ik = iter.Iter.key () in
          if not (String.equal (Internal_key.user_key_of ik) user_key) then
            List.rev acc
          else begin
            let v = iter.Iter.value () in
            iter.Iter.next ();
            if last_ik <> "" && Internal_key.compare_encoded last_ik ik = 0
            then collect acc last_ik (* duplicate: first source wins *)
            else collect ((ik, v) :: acc) ik
          end
      in
      Some (user_key, collect [] "")
    end
  in
  let rec pump () =
    match next_group () with
    | None -> ()
    | Some (_user_key, versions) ->
        let kinds =
          List.map
            (fun (ik, v) -> (Internal_key.ts_of ik, Entry.encoded_is_tombstone v))
            versions
        in
        let kept_ts = keep_timestamps ~snapshots ~drop_tombstones kinds in
        List.iter
          (fun (ik, v) ->
            if List.mem (Internal_key.ts_of ik) kept_ts then
              emit st ~key:ik ~value:v)
          versions;
        pump ()
  in
  (try
     pump ();
     finish_current st
   with e ->
     cleanup_failed st;
     raise e);
  List.rev st.files

(* Input iterators carry the typed corruption signal: a rotten input
   aborts the whole job with {!Table_file.Corruption} so the store can
   quarantine the file instead of merging garbage forward. *)
let file_iter f = Version.iter_of_file f

let run ~cfg ~dir ?cache ?env ~alloc_number ~snapshots task =
  let inputs = task.inputs_lo @ task.inputs_hi in
  let merged =
    Merge_iter.merge ~cmp:Internal_key.compare_encoded
      (List.map file_iter inputs)
  in
  write_sorted_run ~cfg ~dir ?cache ?env ~alloc_number ~snapshots
    ~drop_tombstones:task.drop_tombstones merged

(* ---------- range-partitioned subcompactions ---------- *)

(* Split the task's key space into up to [max_subcompactions] disjoint
   half-open user-key subranges. Candidates are the per-data-block
   anchors of every input file ((last key, stored bytes) pairs off the
   in-memory indexes — no data IO), so boundaries exist even when the
   inputs are a pile of fully-overlapping L0 files. Walking the anchors
   in key order and cutting each time ~total/n bytes accumulate yields
   byte-balanced subranges. Boundaries are user keys: a subrange
   [lo, hi) holds every version of every user key in it, so the per-key
   GC (filter_group) sees complete version groups. *)
let plan_subranges ~max_subcompactions task =
  let whole = [ (None, None) ] in
  if max_subcompactions <= 1 then whole
  else begin
    let anchors =
      List.concat_map
        (fun f ->
          List.map
            (fun (ik, bytes) -> (Internal_key.user_key_of ik, bytes))
            (Clsm_sstable.Table.index_anchors
               (Refcounted.value f).Table_file.table))
        (task.inputs_lo @ task.inputs_hi)
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let total = List.fold_left (fun a (_, w) -> a + w) 0 anchors in
    if total = 0 || List.length anchors < 2 then whole
    else begin
      let target = max 1 (total / max_subcompactions) in
      let cuts, _ =
        List.fold_left
          (fun (cuts, acc) (uk, w) ->
            let acc = acc + w in
            let due = (List.length cuts + 1) * target in
            if
              List.length cuts < max_subcompactions - 1
              && acc >= due
              && (match cuts with
                 | last :: _ -> String.compare uk last > 0
                 | [] -> true)
            then (uk :: cuts, acc)
            else (cuts, acc))
          ([], 0) anchors
      in
      match List.rev cuts with
      | [] -> whole
      | firsts ->
          (* Drop a cut equal to the globally smallest anchor: it would
             leave the first subrange empty. *)
          let smallest = fst (List.hd anchors) in
          let firsts = List.filter (fun b -> String.compare b smallest > 0) firsts in
          if firsts = [] then whole
          else
            let rec ranges lo = function
              | [] -> [ (lo, None) ]
              | b :: rest -> (lo, Some b) :: ranges (Some b) rest
            in
            ranges None firsts
    end
  end

(* One subrange's merge: fresh cursors over every input, clamped to the
   internal-key image of the user-key subrange. [Internal_key.make uk 0]
   is the smallest internal key of user key [uk] (timestamps sort
   ascending), so [lo] is inclusive of every version of its boundary key
   and [hi] excludes every version of its boundary key — no user key
   ever straddles two subranges. *)
let run_subrange ~cfg ~dir ?cache ?env ~alloc_number ~snapshots task (lo, hi) =
  let inputs = task.inputs_lo @ task.inputs_hi in
  let merged =
    Merge_iter.merge ~cmp:Internal_key.compare_encoded
      (List.map file_iter inputs)
  in
  let clamped =
    Iter.clamp ~cmp:Internal_key.compare_encoded
      ?lo:(Option.map (fun uk -> Internal_key.make uk 0) lo)
      ?hi:(Option.map (fun uk -> Internal_key.make uk 0) hi)
      merged
  in
  write_sorted_run ~cfg ~dir ?cache ?env ~alloc_number ~snapshots
    ~drop_tombstones:task.drop_tombstones clamped

let sequential_fan_out thunks =
  List.map (fun f -> try Ok (f ()) with e -> Error e) thunks

let run_parallel ~cfg ~dir ?cache ?env ~alloc_number ~snapshots
    ?(fan_out = sequential_fan_out) ~max_subcompactions task =
  match plan_subranges ~max_subcompactions task with
  | [] | [ _ ] -> (run ~cfg ~dir ?cache ?env ~alloc_number ~snapshots task, 1)
  | subranges ->
      let thunks =
        List.map
          (fun r () ->
            run_subrange ~cfg ~dir ?cache ?env ~alloc_number ~snapshots task r)
          subranges
      in
      let results = fan_out thunks in
      (match
         List.find_map (function Error e -> Some e | Ok _ -> None) results
       with
      | Some e ->
          (* Whole-job abort: subranges that failed already deleted their
             partials (write_sorted_run's cleanup); finished subranges'
             outputs are unpublished, so drop them too (best-effort — a
             survivor is an orphan the next recovery collects). *)
          List.iter
            (function
              | Ok files ->
                  List.iter
                    (fun f ->
                      Table_file.mark_obsolete (Refcounted.value f);
                      Refcounted.decr f)
                    files
              | Error _ -> ())
            results;
          raise e
      | None ->
          (* Subranges are disjoint and ascending, so concatenating their
             output lists in order yields the level's sorted run. *)
          ( List.concat_map (function Ok fs -> fs | Error _ -> []) results,
            List.length subranges ))

let edit_of_task task ~outputs =
  {
    Version_edit.empty with
    removed =
      List.map
        (fun f -> (Refcounted.value f).Table_file.number)
        (task.inputs_lo @ task.inputs_hi);
    added = List.map (fun f -> (task.target_level, f)) outputs;
  }
