(* Crash recovery and directory repair. [recover] rebuilds the full
   starting state of a store directory — disk version from the
   manifest, memtable from WAL replay, counters — and leaves the
   directory clean (orphans and temp files removed, replayed records
   re-logged into a fresh WAL, a manifest that makes the old logs
   redundant). The store only has to wrap the result in its runtime
   state and start maintenance. *)

open Clsm_primitives
open Clsm_lsm
module Env = Clsm_env.Env

let list_files ~env dir =
  Env.(env.list_dir) dir
  |> List.filter_map (fun name ->
         match String.split_on_char '.' name with
         | [ num; ext ] -> (
             match int_of_string_opt num with
             | Some n when ext = "sst" -> Some (`Table (n, name))
             | Some n when ext = "log" -> Some (`Wal (n, name))
             | _ -> None)
         | _ -> None)

(* Builders and the manifest writer stage output in [<name>.tmp] and
   publish by rename; a crash in between strands the temp file. Nothing
   ever reads one back, so they are all garbage on open. *)
let remove_temp_files ~env dir =
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        try Env.(env.remove) (Filename.concat dir name)
        with Env.Error _ -> ())
    (Env.(env.list_dir) dir)

(* LevelDB's RepairDB: reconstruct a usable manifest from whatever table
   files survive in the directory. Every table is installed at level 0
   (overlap is legal there); higher timestamps win on reads, so no data is
   mis-ordered. WAL files are retained for replay by the next open. *)
let repair ?(env = Env.unix) ~dir () =
  remove_temp_files ~env dir;
  let files = list_files ~env dir in
  let tables =
    List.filter_map (function `Table (n, _) -> Some n | `Wal _ -> None) files
    |> List.sort compare
  in
  let wals =
    List.filter_map (function `Wal (n, _) -> Some n | `Table _ -> None) files
  in
  (* Probe each table; drop unreadable ones (renamed aside, not deleted).
     The highest timestamp seen anywhere restores the counter so new writes
     stay newer than recovered data. *)
  let max_ts = ref 0 in
  let usable =
    List.filter
      (fun n ->
        let aside () =
          let path = Table_file.table_path ~dir n in
          try Env.(env.rename) ~src:path ~dst:(path ^ ".damaged")
          with Env.Error _ -> ()
        in
        match Table_file.open_number ~env ~dir n with
        | tf -> (
            match Clsm_sstable.Table.verify tf.Table_file.table with
            | Ok _ ->
                Clsm_sstable.Table.fold
                  (fun ik _ () ->
                    let ts = Internal_key.ts_of ik in
                    if ts > !max_ts then max_ts := ts)
                  tf.Table_file.table ();
                Clsm_sstable.Table.close tf.Table_file.table;
                true
            | Error _ ->
                Clsm_sstable.Table.close tf.Table_file.table;
                aside ();
                false)
        | exception _ ->
            aside ();
            false)
      tables
  in
  let max_number = List.fold_left max 0 (usable @ wals) in
  ignore
    (Manifest.save ~env ~dir
       {
         Manifest.next_file_number = max_number + 1;
         last_ts = !max_ts;
         wal_number = List.fold_left min max_int (max_int :: wals);
         (* newest tables first, like fresh flushes *)
         files = List.map (fun n -> (0, n)) (List.rev usable);
       }
      : int)

type recovered = {
  version : Version.t;  (** one creation reference, caller owns *)
  mem : Memtable.t;  (** memtable rebuilt from WAL replay *)
  wal : Clsm_wal.Wal_writer.t option;  (** fresh log covering [mem] *)
  wal_number : int;
  last_ts : int;  (** highest timestamp seen anywhere *)
  next_file : int Atomic.t;
}

let load_version (opts : Options.t) ~cache ~stats ~disk_files =
  let env = opts.Options.env in
  let num_levels = opts.Options.lsm.Lsm_config.num_levels in
  match Manifest.load ~env ~dir:opts.dir () with
  | None -> (Version.empty ~num_levels, 1, 0, 0)
  | Some (m, quarantined) ->
      (* Drop orphans: tables not in the manifest (half-finished flush or
         compaction, or an input whose deletion a crash cut short) and
         logs below the manifest's replay floor. A table under an old
         manifest's [quarantine] record was already out of the read
         view: it is set aside as evidence, as repair's discard does, and
         the manifest saved below drops the record. *)
      let live = List.map snd m.Manifest.files in
      List.iter
        (fun f ->
          match f with
          | `Table (n, _) when List.mem n live -> ()
          | `Table (n, name) when List.mem n quarantined ->
              let path = Filename.concat opts.dir name in
              Env.(env.rename) ~src:path ~dst:(path ^ ".quarantined");
              Stats.incr stats Stats.quarantined_tables
          | `Table (_, name) -> Env.(env.remove) (Filename.concat opts.dir name)
          | `Wal (n, name) when n < m.Manifest.wal_number ->
              Env.(env.remove) (Filename.concat opts.dir name)
          | `Wal _ -> ())
        disk_files;
      let added =
        List.map
          (fun (level, number) ->
            let tf = Table_file.open_number ~cache ~env ~dir:opts.dir number in
            (level, Refcounted.create ~release:Table_file.release tf))
          m.Manifest.files
      in
      let v =
        Version.apply (Version.empty ~num_levels)
          { Version_edit.empty with added }
      in
      (* Version.apply took refs; drop the creation refs *)
      List.iter (fun (_, f) -> Refcounted.retire f) added;
      ( v,
        m.Manifest.next_file_number,
        m.Manifest.last_ts,
        m.Manifest.wal_number )

(* Replay surviving logs oldest-first; timestamps restore the global
   write order regardless of on-disk record order (paper §4). *)
let replay_wals (opts : Options.t) ~min_wal ~mem ~max_ts =
  let env = opts.Options.env in
  let wals =
    List.filter_map
      (function `Wal (n, name) when n >= min_wal -> Some (n, name) | _ -> None)
      (list_files ~env opts.dir)
    |> List.sort compare
  in
  List.iter
    (fun (_, name) ->
      let records, _outcome =
        Clsm_wal.Wal_reader.read_records ~env ~strict:opts.strict_wal
          (Filename.concat opts.dir name)
      in
      List.iter
        (fun payload ->
          match Log_record.decode_all payload with
          | records ->
              List.iter
                (fun { Log_record.ts; user_key; entry } ->
                  Memtable.add mem ~user_key ~ts entry;
                  if ts > !max_ts then max_ts := ts)
                records
          | exception (Clsm_util.Varint.Corrupt _ | Invalid_argument _) ->
              (* The record's CRC passed but its payload does not parse.
                 Default: skip it, like a corrupt tail. Strict mode
                 surfaces it. *)
              if opts.strict_wal then
                raise
                  (Clsm_wal.Wal_reader.Corrupt
                     (name ^ ": undecodable record payload")))
        records)
    wals;
  wals

let recover (opts : Options.t) ~cache ~stats =
  let env = opts.Options.env in
  if not (Env.(env.file_exists) opts.dir) then Env.(env.mkdir) opts.dir;
  remove_temp_files ~env opts.dir;
  let disk_files = list_files ~env opts.dir in
  let version, next_file, last_ts, min_wal =
    load_version opts ~cache ~stats ~disk_files
  in
  let mem = Memtable.create () in
  let max_ts = ref last_ts in
  let replayed = replay_wals opts ~min_wal ~mem ~max_ts in
  let next_file =
    List.fold_left
      (fun acc f -> match f with `Table (n, _) | `Wal (n, _) -> max acc (n + 1))
      (max 1 next_file) disk_files
  in
  let next_file_atomic = Atomic.make next_file in
  let wal_number = Atomic.fetch_and_add next_file_atomic 1 in
  let wal =
    if opts.wal_enabled then
      Some
        (Clsm_wal.Wal_writer.create ~mode:(Options.wal_mode opts)
           ~observer:(Stats.wal_observer stats) ~env
           (Table_file.wal_path ~dir:opts.dir wal_number))
    else None
  in
  (* Re-log replayed records into the fresh WAL so older logs can be
     ignored on the next recovery. [enqueue] + one [flush] rather than
     [append] per record: in the durable modes a blocking append would
     pay one fsync (and a group accumulation window) per
     already-recovered record. *)
  (match wal with
  | Some w ->
      Memtable.fold_entries
        (fun user_key ts entry () ->
          Clsm_wal.Wal_writer.enqueue w
            (Log_record.encode { Log_record.ts; user_key; entry }))
        mem ();
      Clsm_wal.Wal_writer.flush w
  | None -> ());
  (* Persist a manifest that points past the replayed logs, then drop
     them: their live records are covered by the fresh WAL. *)
  let files_of_version =
    List.map
      (fun (level, f) -> (level, (Refcounted.value f).Table_file.number))
      (Version.files_by_level version)
  in
  ignore
    (Manifest.save ~env ~dir:opts.dir
       {
         Manifest.next_file_number = Atomic.get next_file_atomic;
         last_ts = !max_ts;
         wal_number;
         files = files_of_version;
       }
      : int);
  List.iter
    (fun (n, name) ->
      if n < wal_number then
        (* Best effort: a survivor is re-collected on the next open. *)
        try Env.(env.remove) (Filename.concat opts.dir name)
        with Env.Error _ -> ())
    replayed;
  {
    version;
    mem;
    wal;
    wal_number;
    last_ts = !max_ts;
    next_file = next_file_atomic;
  }
