open Clsm_primitives
open Clsm_lsm
open Clsm_core

type snapshot = { snap_ts : int; released : bool Atomic.t }

type memcomp = {
  mem : Memtable.t;
  wal : Clsm_wal.Wal_writer.t option;
  wal_number : int;
}

type t = {
  opts : Options.t;
  mutex : Mutex.t; (* the LevelDB global mutex *)
  mutable pm : memcomp;
  mutable imm : memcomp option;
  mutable version : Version.t Refcounted.t;
  mutable seq : int;
  mutable snapshot_list : int list; (* active snapshot timestamps *)
  next_file : int Atomic.t;
  cache : Clsm_sstable.Block.t Clsm_sstable.Cache.t;
  stats : Stats.t;
  stop : bool Atomic.t;
  maintenance : Mutex.t;
  work : Wakeup.t;
      (* signalled when a write leaves the memtable over budget and after
         every flush or compaction install: the background loop waits
         here for work, stalled writers for an install *)
  mutable bg_domain : unit Domain.t option;
  mutable closed : bool;
}

let with_mutex t f = Mutex.protect t.mutex f

let alloc_file_number t () = Atomic.fetch_and_add t.next_file 1

let new_memcomp t =
  let wal_number = alloc_file_number t () in
  let wal =
    if t.opts.Options.wal_enabled then
      Some
        (Clsm_wal.Wal_writer.create
           ~mode:(Options.wal_mode t.opts)
           (Table_file.wal_path ~dir:t.opts.Options.dir wal_number))
    else None
  in
  { mem = Memtable.create (); wal; wal_number }

(* ---------- manifest / recovery (same format as Clsm_core.Db) ---------- *)

let manifest_of_state t =
  let files =
    List.map
      (fun (level, f) -> (level, (Refcounted.value f).Table_file.number))
      (Version.files_by_level (Refcounted.value t.version))
  in
  {
    Manifest.next_file_number = Atomic.get t.next_file;
    last_ts = t.seq;
    wal_number = t.pm.wal_number;
    files;
    (* the baseline has no quarantine machinery *)
    quarantined = [];
  }

let save_manifest t =
  ignore (Manifest.save ~dir:t.opts.Options.dir (manifest_of_state t) : int)

(* ---------- reads ---------- *)

(* LevelDB's read path: grab the component pointers under the mutex,
   search without it. *)
let pin_components t =
  with_mutex t (fun () ->
      let v = t.version in
      let ok = Refcounted.try_incr v in
      assert ok;
      (t.pm, t.imm, v))

let get_entry t ~user_key ~snap_ts =
  let pm, imm, vcell = pin_components t in
  let result =
    match Memtable.get pm.mem ~user_key ~snap_ts with
    | Some (_, e) -> Some e
    | None -> (
        match
          match imm with
          | Some mc -> Memtable.get mc.mem ~user_key ~snap_ts
          | None -> None
        with
        | Some (_, e) -> Some e
        | None -> (
            match Version.get (Refcounted.value vcell) ~user_key ~snap_ts with
            | Some (_, e) -> Some e
            | None -> None))
  in
  Refcounted.decr vcell;
  result

let get t key =
  Stats.incr t.stats Stats.gets;
  match get_entry t ~user_key:key ~snap_ts:Internal_key.max_ts with
  | Some (Entry.Value v) -> Some v
  | Some Entry.Tombstone | None -> None

(* ---------- writes (fully serialized) ---------- *)

(* A stalled writer sleeps until the next install. The generation is
   read before the condition is re-checked, so an install in between
   makes the wait return at once. *)
let throttle t =
  let stalled () =
    (not (Atomic.get t.stop))
    && with_mutex t (fun () ->
           (Memtable.approximate_bytes t.pm.mem
            > 2 * t.opts.Options.memtable_bytes
           && t.imm <> None)
           || Version.level_file_count (Refcounted.value t.version) 0
              >= t.opts.Options.lsm.Lsm_config.l0_stall_limit)
  in
  if stalled () then begin
    Stats.incr t.stats Stats.write_stalls;
    let rec wait () =
      let seen = Wakeup.current t.work in
      if stalled () then begin
        ignore (Wakeup.wait t.work ~seen : int);
        wait ()
      end
    in
    wait ()
  end

(* The write that takes the memtable over budget wakes the background
   loop to rotate it; the loop re-checks the budget after every step, so
   later writes need not. *)
let write_entry t ~user_key entry =
  throttle t;
  let budget = t.opts.Options.memtable_bytes in
  let crossed =
    with_mutex t (fun () ->
        let before = Memtable.approximate_bytes t.pm.mem in
        t.seq <- t.seq + 1;
        let ts = t.seq in
        Memtable.add t.pm.mem ~user_key ~ts entry;
        (match t.pm.wal with
        | Some w ->
            Clsm_wal.Wal_writer.append w
              (Log_record.encode { Log_record.ts; user_key; entry })
        | None -> ());
        before <= budget && Memtable.approximate_bytes t.pm.mem > budget)
  in
  if crossed then Wakeup.signal t.work

let put t ~key ~value =
  Stats.incr t.stats Stats.puts;
  write_entry t ~user_key:key (Entry.Value value)

let delete t ~key =
  Stats.incr t.stats Stats.deletes;
  write_entry t ~user_key:key Entry.Tombstone

(* ---------- snapshots (trivial under a single writer, §4) ---------- *)

let get_snap t =
  Stats.incr t.stats Stats.snapshots_taken;
  with_mutex t (fun () ->
      let ts = t.seq in
      t.snapshot_list <- ts :: t.snapshot_list;
      { snap_ts = ts; released = Atomic.make false })

let snapshot_ts s = s.snap_ts

let remove_one x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest when y = x -> List.rev_append acc rest
    | y :: rest -> go (y :: acc) rest
  in
  go [] l

let release_snapshot t s =
  if not (Atomic.exchange s.released true) then
    with_mutex t (fun () -> t.snapshot_list <- remove_one s.snap_ts t.snapshot_list)

let get_at t s key =
  Stats.incr t.stats Stats.gets;
  match get_entry t ~user_key:key ~snap_ts:s.snap_ts with
  | Some (Entry.Value v) -> Some v
  | Some Entry.Tombstone | None -> None

(* ---------- scans ---------- *)

let range ?snapshot ?start ?stop ?(limit = max_int) t =
  Stats.incr t.stats Stats.scans;
  let snap, own =
    match snapshot with Some s -> (s, false) | None -> (get_snap t, true)
  in
  let pm, imm, vcell = pin_components t in
  let sources =
    Memtable.iter pm.mem
    :: (match imm with Some mc -> [ Memtable.iter mc.mem ] | None -> [])
    @ Version.iters (Refcounted.value vcell)
  in
  let merged = Merge_iter.merge ~cmp:Internal_key.compare_encoded sources in
  (match start with
  | Some s -> merged.Iter.seek (Internal_key.make s 0)
  | None -> merged.Iter.seek_to_first ());
  let rec collect n acc =
    if n >= limit then List.rev acc
    else
      match Iter.next_visible merged ~snap_ts:snap.snap_ts with
      | None -> List.rev acc
      | Some (k, _) when (match stop with Some e -> k >= e | None -> false) ->
          List.rev acc
      | Some kv -> collect (n + 1) (kv :: acc)
  in
  let result = collect 0 [] in
  Refcounted.decr vcell;
  if own then release_snapshot t snap;
  result

(* ---------- maintenance ---------- *)

let rotate t =
  let fresh = new_memcomp t in
  with_mutex t (fun () ->
      if t.imm <> None || Memtable.is_empty t.pm.mem then begin
        (match fresh.wal with
        | Some w ->
            Clsm_wal.Wal_writer.close w;
            (try Sys.remove (Clsm_wal.Wal_writer.path w) with Sys_error _ -> ())
        | None -> ());
        false
      end
      else begin
        t.imm <- Some t.pm;
        t.pm <- fresh;
        Stats.incr t.stats Stats.memtable_rotations;
        true
      end)

let flush_imm t =
  match with_mutex t (fun () -> t.imm) with
  | None -> false
  | Some mc ->
      let snapshots = with_mutex t (fun () -> t.snapshot_list) in
      let outputs =
        Compaction.write_sorted_run ~cfg:t.opts.Options.lsm
          ~dir:t.opts.Options.dir ~cache:t.cache
          ~alloc_number:(alloc_file_number t) ~snapshots ~drop_tombstones:false
          (Memtable.iter mc.mem)
      in
      with_mutex t (fun () ->
          let next =
            Version.apply (Refcounted.value t.version)
              {
                Version_edit.empty with
                added = List.map (fun f -> (0, f)) outputs;
              }
          in
          let old = t.version in
          t.version <- Refcounted.create ~release:Version.release next;
          Refcounted.retire old;
          t.imm <- None);
      List.iter Refcounted.retire outputs;
      Stats.incr t.stats Stats.flushes;
      Stats.add t.stats Stats.bytes_flushed (Version.file_bytes outputs);
      with_mutex t (fun () -> save_manifest t);
      (match mc.wal with
      | Some w ->
          Clsm_wal.Wal_writer.close w;
          (try Sys.remove (Clsm_wal.Wal_writer.path w) with Sys_error _ -> ())
      | None -> ());
      true

let compact_level_once t =
  let vcell = with_mutex t (fun () ->
      let v = t.version in
      let ok = Refcounted.try_incr v in
      assert ok;
      v)
  in
  let result =
    match Compaction.pick ~cfg:t.opts.Options.lsm (Refcounted.value vcell) with
    | None -> false
    | Some task ->
        let snapshots = with_mutex t (fun () -> t.snapshot_list) in
        let outputs =
          Compaction.run ~cfg:t.opts.Options.lsm ~dir:t.opts.Options.dir
            ~cache:t.cache ~alloc_number:(alloc_file_number t) ~snapshots task
        in
        with_mutex t (fun () ->
            let next =
              Version.apply (Refcounted.value t.version)
                (Compaction.edit_of_task task ~outputs)
            in
            let old = t.version in
            t.version <- Refcounted.create ~release:Version.release next;
            Refcounted.retire old);
        List.iter
          (fun f -> Table_file.mark_obsolete (Refcounted.value f))
          (task.Compaction.inputs_lo @ task.Compaction.inputs_hi);
        List.iter Refcounted.retire outputs;
        Stats.record_compaction t.stats ~src_level:task.Compaction.src_level;
        with_mutex t (fun () -> save_manifest t);
        true
  in
  Refcounted.decr vcell;
  result

let maintenance_step t =
  Mutex.protect t.maintenance (fun () ->
      if flush_imm t then true
      else begin
        let need =
          with_mutex t (fun () ->
              Memtable.approximate_bytes t.pm.mem
              > t.opts.Options.memtable_bytes)
        in
        if need && rotate t then begin
          ignore (flush_imm t);
          true
        end
        else compact_level_once t
      end)

let compact_now t =
  Mutex.protect t.maintenance (fun () ->
      ignore (flush_imm t);
      ignore (rotate t);
      ignore (flush_imm t);
      while compact_level_once t do () done);
  Wakeup.signal t.work

(* Each productive step installed a flush or a compaction: wake stalled
   writers. The generation is read before the step looks for work, so a
   write that crosses the budget meanwhile cuts the wait short. *)
let background_loop t =
  while not (Atomic.get t.stop) do
    let seen = Wakeup.current t.work in
    if maintenance_step t then Wakeup.signal t.work
    else if not (Atomic.get t.stop) then ignore (Wakeup.wait t.work ~seen : int)
  done

(* ---------- open / close ---------- *)

let open_store (opts : Options.t) =
  if not (Sys.file_exists opts.Options.dir) then Unix.mkdir opts.Options.dir 0o755;
  let cache =
    Clsm_sstable.Cache.create ~capacity:opts.Options.cache_bytes
      ~readahead:opts.Options.readahead_blocks
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let num_levels = opts.Options.lsm.Lsm_config.num_levels in
  let dir = opts.Options.dir in
  let manifest = Manifest.load ~dir () in
  let list_files () =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match String.split_on_char '.' name with
           | [ num; ext ] -> (
               match int_of_string_opt num with
               | Some n when ext = "sst" -> Some (`Table (n, name))
               | Some n when ext = "log" -> Some (`Wal (n, name))
               | _ -> None)
           | _ -> None)
  in
  let version, next_file, last_ts, min_wal =
    match manifest with
    | None -> (Version.empty ~num_levels, 1, 0, 0)
    | Some m ->
        let live = List.map snd m.Manifest.files in
        List.iter
          (function
            | `Table (n, name) when not (List.mem n live) ->
                Sys.remove (Filename.concat dir name)
            | `Wal (n, name) when n < m.Manifest.wal_number ->
                Sys.remove (Filename.concat dir name)
            | `Table _ | `Wal _ -> ())
          (list_files ());
        let added =
          List.map
            (fun (level, number) ->
              ( level,
                Refcounted.create ~release:Table_file.release
                  (Table_file.open_number ~cache ~dir number) ))
            m.Manifest.files
        in
        let v =
          Version.apply (Version.empty ~num_levels)
            { Version_edit.empty with added }
        in
        List.iter (fun (_, f) -> Refcounted.retire f) added;
        (v, m.Manifest.next_file_number, m.Manifest.last_ts, m.Manifest.wal_number)
  in
  let mem = Memtable.create () in
  let max_ts = ref last_ts in
  let wals =
    List.filter_map
      (function `Wal (n, name) when n >= min_wal -> Some (n, name) | _ -> None)
      (list_files ())
    |> List.sort compare
  in
  List.iter
    (fun (_, name) ->
      let records, _ = Clsm_wal.Wal_reader.read_records (Filename.concat dir name) in
      List.iter
        (fun payload ->
          match Log_record.decode payload with
          | { Log_record.ts; user_key; entry } ->
              Memtable.add mem ~user_key ~ts entry;
              if ts > !max_ts then max_ts := ts
          | exception (Clsm_util.Varint.Corrupt _ | Invalid_argument _) -> ())
        records)
    wals;
  let next_file =
    List.fold_left
      (fun acc f -> match f with `Table (n, _) | `Wal (n, _) -> max acc (n + 1))
      (max 1 next_file) (list_files ())
  in
  let next_file_atomic = Atomic.make next_file in
  let wal_number = Atomic.fetch_and_add next_file_atomic 1 in
  let wal =
    if opts.Options.wal_enabled then
      Some
        (Clsm_wal.Wal_writer.create ~mode:(Options.wal_mode opts)
           (Table_file.wal_path ~dir wal_number))
    else None
  in
  (match wal with
  | Some w ->
      Memtable.fold_entries
        (fun user_key ts entry () ->
          Clsm_wal.Wal_writer.append w
            (Log_record.encode { Log_record.ts; user_key; entry }))
        mem ();
      Clsm_wal.Wal_writer.flush w
  | None -> ());
  let t =
    {
      opts;
      mutex = Mutex.create ();
      pm = { mem; wal; wal_number };
      imm = None;
      version = Refcounted.create ~release:Version.release version;
      seq = !max_ts;
      snapshot_list = [];
      next_file = next_file_atomic;
      cache;
      stats = Stats.create ();
      stop = Atomic.make false;
      maintenance = Mutex.create ();
      work = Wakeup.create ();
      bg_domain = None;
      closed = false;
    }
  in
  save_manifest t;
  List.iter
    (fun (n, name) ->
      if n < wal_number then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    wals;
  t.bg_domain <- Some (Domain.spawn (fun () -> background_loop t));
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    Atomic.set t.stop true;
    Wakeup.signal t.work;
    (match t.bg_domain with Some d -> Domain.join d | None -> ());
    (match t.pm.wal with
    | Some w ->
        Clsm_wal.Wal_writer.flush w;
        Clsm_wal.Wal_writer.close w
    | None -> ());
    save_manifest t;
    Refcounted.retire t.version
  end

let stats t = Stats.read t.stats

let level_file_counts t =
  let v = Refcounted.value t.version in
  List.length v.Version.l0
  :: List.map List.length (Array.to_list v.Version.levels)
