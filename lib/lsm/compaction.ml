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
    (v : Version.t) =
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
      drop_tombstones = deeper_levels_empty v target_level;
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

(* LevelDB's trivial move ([Compaction::IsTrivialMove]): inputs that
   meet nothing at the target level are relinked there by the manifest
   edit alone. A moved file keeps what a merge would have dropped (shadowed
   versions, tombstones over nothing deeper), so the move is refused when
   the file would sit over more than ten target-size files of the level
   below the target (LevelDB's [kMaxGrandParentOverlapBytes]): its
   eventual merge would be that much larger. *)
let is_trivial_move ~cfg (v : Version.t) task =
  let tfs = List.map Refcounted.value task.inputs_lo in
  let uk_lo tf = Internal_key.user_key_of tf.Table_file.smallest in
  let uk_hi tf = Internal_key.user_key_of tf.Table_file.largest in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
        String.compare (uk_hi a) (uk_lo b) < 0 && disjoint rest
    | [] | [ _ ] -> true
  in
  let grandparent_bytes () =
    if task.target_level < Array.length v.Version.levels then
      Version.file_bytes
        (overlapping_user_keys v.Version.levels.(task.target_level)
           task.inputs_lo)
    else 0
  in
  task.inputs_hi = []
  && List.for_all (fun tf -> tf.Table_file.smallest <> "") tfs
  && disjoint
       (List.sort (fun a b -> String.compare (uk_lo a) (uk_lo b)) tfs)
  && grandparent_bytes () <= 10 * cfg.Lsm_config.target_file_size

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
   re-verify the file instead of merging garbage forward. They stream
   past the block cache (LevelDB's [fill_cache = false]): the inputs are
   read once and deleted, so caching their blocks would only evict the
   blocks that readers use. *)
let file_iter f = Version.iter_of_file ~fill_cache:false f

let run ~cfg ~dir ?cache ?env ~alloc_number ~snapshots task =
  let inputs = task.inputs_lo @ task.inputs_hi in
  let merged =
    Merge_iter.merge ~cmp:Internal_key.compare_encoded
      (List.map file_iter inputs)
  in
  write_sorted_run ~cfg ~dir ?cache ?env ~alloc_number ~snapshots
    ~drop_tombstones:task.drop_tombstones merged

let edit_of_task task ~outputs =
  {
    Version_edit.removed =
      List.map
        (fun f -> (Refcounted.value f).Table_file.number)
        (task.inputs_lo @ task.inputs_hi);
    added = List.map (fun f -> (task.target_level, f)) outputs;
  }
