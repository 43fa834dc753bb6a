(* Tests for the extended store features: atomic write batches, TTL
   snapshots, crash simulation, and integrity verification. *)

open Clsm_core
open Clsm_lsm

let spawn_all fns = List.map Domain.spawn fns |> List.map Domain.join

let fresh_dir = Test_dirs.fresh "feat"

let small_opts ?(memtable_bytes = 16 * 1024) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes;
    cache_bytes = 1 lsl 20;
    lsm =
      {
        base.Options.lsm with
        Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 16 * 1024;
        block_size = 1024;
      };
  }

let with_store ?memtable_bytes f =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts ?memtable_bytes dir) in
  match f db dir with
  | r ->
      Db.close db;
      r
  | exception e ->
      Db.close db;
      raise e

(* ---------- Log_record batches ---------- *)

let log_record_roundtrip () =
  let records =
    [
      { Log_record.ts = 1; user_key = "a"; entry = Entry.Value "va" };
      { Log_record.ts = 2; user_key = ""; entry = Entry.Tombstone };
      { Log_record.ts = 999999; user_key = "long-key"; entry = Entry.Value "" };
    ]
  in
  let payload = Log_record.encode_batch records in
  Alcotest.(check bool) "batch roundtrip" true
    (Log_record.decode_all payload = records);
  let single = Log_record.encode (List.hd records) in
  Alcotest.(check bool) "single roundtrip" true
    (Log_record.decode single = List.hd records);
  (match Log_record.decode payload with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "decode should reject multi-record payloads");
  Alcotest.(check bool) "empty batch" true (Log_record.decode_all "" = [])

let prop_log_record_batch =
  QCheck.Test.make ~name:"log batch roundtrip" ~count:200
    QCheck.(
      list_of_size
        Gen.(0 -- 10)
        (triple (map abs small_int) (string_of_size Gen.(0 -- 10))
           (option (string_of_size Gen.(0 -- 10)))))
    (fun raw ->
      let records =
        List.map
          (fun (ts, user_key, v) ->
            {
              Log_record.ts = ts + 1;
              user_key;
              entry =
                (match v with Some s -> Entry.Value s | None -> Entry.Tombstone);
            })
          raw
      in
      Log_record.decode_all (Log_record.encode_batch records) = records)

(* ---------- write_batch ---------- *)

let batch_basic () =
  with_store (fun db _ ->
      Db.put db ~key:"pre" ~value:"existing";
      Db.write_batch db
        [
          Db.Batch_put ("a", "1");
          Db.Batch_put ("b", "2");
          Db.Batch_delete "pre";
          Db.Batch_put ("a", "1b");
        ];
      Alcotest.(check (option string)) "last write in batch wins" (Some "1b")
        (Db.get db "a");
      Alcotest.(check (option string)) "b" (Some "2") (Db.get db "b");
      Alcotest.(check (option string)) "deleted in batch" None (Db.get db "pre");
      Db.write_batch db [];
      Alcotest.(check (option string)) "empty batch is a no-op" (Some "2")
        (Db.get db "b"))

let batch_atomic_vs_snapshots () =
  (* Writers apply balanced transfers as batches; every snapshot must see a
     constant total. *)
  with_store ~memtable_bytes:(1 lsl 20) (fun db _ ->
      let accounts = 8 in
      let total = 800 in
      Db.write_batch db
        (List.init accounts (fun i ->
             Db.Batch_put
               (Printf.sprintf "acct%02d" i, string_of_int (total / accounts))));
      let stop = Atomic.make false in
      let transfer rng_seed () =
        let rng = ref rng_seed in
        let next () =
          rng := (!rng * 1103515245) + 12345;
          abs !rng
        in
        while not (Atomic.get stop) do
          let a = next () mod accounts and b = next () mod accounts in
          if a <> b then begin
            let ka = Printf.sprintf "acct%02d" a
            and kb = Printf.sprintf "acct%02d" b in
            let va = int_of_string (Option.get (Db.get db ka)) in
            let vb = int_of_string (Option.get (Db.get db kb)) in
            (* not a serializable transaction — but the batch itself must
               appear atomic to snapshots, which is what we assert *)
            Db.write_batch db
              [
                Db.Batch_put (ka, string_of_int (va - 1));
                Db.Batch_put (kb, string_of_int (vb + 1));
              ]
          end
        done;
        0
      in
      let auditor () =
        let bad = ref 0 in
        for _ = 1 to 200 do
          let s = Db.get_snap db in
          let sum =
            List.fold_left
              (fun acc i ->
                acc
                + int_of_string
                    (Option.get (Db.get_at db s (Printf.sprintf "acct%02d" i))))
              0
              (List.init accounts Fun.id)
          in
          (* single-writer transfers: with one writer domain the read-
             modify-write pairs are also atomic, so the invariant holds *)
          if sum <> total then incr bad;
          Db.release_snapshot db s
        done;
        Atomic.set stop true;
        !bad
      in
      let results = spawn_all [ transfer 1; auditor ] in
      Alcotest.(check int) "snapshots never see a torn batch" 0
        (List.nth results 1))

let batch_durable_all_or_nothing () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  Db.write_batch db
    [ Db.Batch_put ("x", "1"); Db.Batch_put ("y", "2"); Db.Batch_put ("z", "3") ];
  Db.flush_wal db;
  Db.close db;
  (* Truncate into the batch's WAL record: the whole batch must vanish. *)
  let wal =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.sort compare |> List.rev |> List.hd
  in
  let path = Filename.concat dir wal in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 2);
  Unix.close fd;
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "x gone" None (Db.get db "x");
  Alcotest.(check (option string)) "y gone" None (Db.get db "y");
  Alcotest.(check (option string)) "z gone" None (Db.get db "z");
  Db.close db

let batch_recovery () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  Db.write_batch db
    [ Db.Batch_put ("k1", "v1"); Db.Batch_delete "k1"; Db.Batch_put ("k2", "v2") ];
  Db.flush_wal db;
  Db.close db;
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "k1 deleted by batch" None (Db.get db "k1");
  Alcotest.(check (option string)) "k2 recovered" (Some "v2") (Db.get db "k2");
  Db.close db

(* ---------- TTL snapshots / Snapshot_registry ---------- *)

let registry_basics () =
  let r = Snapshot_registry.create () in
  Alcotest.(check (option int)) "empty" None
    (Snapshot_registry.min_timestamp r ~now:0.0);
  let h5 = Snapshot_registry.install r ~now:0.0 5 in
  let _h3 = Snapshot_registry.install r ~now:0.0 3 in
  let _h9 = Snapshot_registry.install r ~ttl:10.0 ~now:0.0 9 in
  Alcotest.(check (list int)) "live" [ 3; 5; 9 ]
    (Snapshot_registry.live_timestamps r ~now:1.0);
  Snapshot_registry.remove r h5;
  Alcotest.(check (list int)) "after remove" [ 3; 9 ]
    (Snapshot_registry.live_timestamps r ~now:1.0);
  Alcotest.(check (list int)) "after ttl expiry" [ 3 ]
    (Snapshot_registry.live_timestamps r ~now:11.0);
  Alcotest.(check (option int)) "min" (Some 3)
    (Snapshot_registry.min_timestamp r ~now:11.0);
  Snapshot_registry.remove r h5 (* idempotent *)

(* Releasing a snapshot unlinks its entry at once: on a store that never
   flushes or compacts nothing else prunes the registry, and it must not
   keep one dead entry per released snapshot. *)
let registry_remove_unlinks () =
  let r = Snapshot_registry.create () in
  for i = 1 to 10_000 do
    match Snapshot_registry.install_chosen r ~now:0.0 (fun () -> i) with
    | _, Some h -> Snapshot_registry.remove r h
    | _, None -> Alcotest.fail "positive timestamp not registered"
  done;
  Alcotest.(check int) "nothing left" 0 (Snapshot_registry.cardinal r)

(* A fresh store's Active sets have claimed no slot, so a new domain's
   first put publishes above their high-water mark while snapshots on
   another domain scan below it. The mark covers the slot before the
   put checks [snapTime], so each snapshot either waits the put out or
   makes it re-draw a newer timestamp: read through every snapshot taken
   while the put ran, the key answers the same before and after the
   writer finishes. *)
let first_put_vs_snapshot () =
  for round = 1 to 50 do
    let dir = fresh_dir () in
    let db =
      Db.open_store
        {
          (small_opts dir) with
          Options.snapshots =
            (if round mod 2 = 0 then Clock.Linearizable else Clock.Serializable);
        }
    in
    let ready = Atomic.make 0 and put_done = Atomic.make false in
    let start () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done
    in
    let writer =
      Domain.spawn (fun () ->
          start ();
          Db.put db ~key:"k" ~value:"v";
          Atomic.set put_done true)
    in
    start ();
    let rec snap acc =
      if Atomic.get put_done then acc
      else
        let s = Db.get_snap db in
        snap ((s, Db.get_at db s "k") :: acc)
    in
    let seen = snap [] in
    Domain.join writer;
    List.iter
      (fun (s, before) ->
        Alcotest.(check (option string))
          (Printf.sprintf "round %d, snapshot %d: read is stable" round
             (Db.snapshot_ts s))
          before (Db.get_at db s "k");
        Db.release_snapshot db s)
      seen;
    Db.close db
  done

let ttl_snapshot_released_for_gc () =
  with_store (fun db _ ->
      Db.put db ~key:"k" ~value:"old";
      let s = Db.get_snap ~ttl:0.05 db in
      Db.put db ~key:"k" ~value:"new";
      (* While the TTL snapshot is live, GC must keep the old version. *)
      Db.compact_now db;
      Alcotest.(check (option string)) "pinned while live" (Some "old")
        (Db.get_at db s "k");
      Unix.sleepf 0.1;
      (* Expired: compaction may now GC the old version. *)
      Db.put db ~key:"pad" ~value:"x";
      Db.compact_now db;
      Db.compact_now db;
      Alcotest.(check (option string)) "live value unaffected" (Some "new")
        (Db.get db "k"))

(* ---------- crash simulation ---------- *)

let crash_loses_unflushed_async_tail_only () =
  let dir = fresh_dir () in
  let opts = small_opts ~memtable_bytes:(1 lsl 20) dir in
  let db = Db.open_store opts in
  for i = 0 to 199 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"v"
  done;
  Db.flush_wal db;
  (* everything up to here is on disk; the rest may die with the crash *)
  for i = 200 to 249 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"v"
  done;
  Db.simulate_crash db;
  let db = Db.open_store opts in
  let flushed_missing = ref 0 in
  for i = 0 to 199 do
    if Db.get db (Printf.sprintf "k%04d" i) = None then incr flushed_missing
  done;
  Alcotest.(check int) "flushed records survive the crash" 0 !flushed_missing;
  (* The async tail may or may not have made it; whatever is there must be
     readable and the store healthy. *)
  Alcotest.(check (list string)) "store verifies" [] (Db.verify_integrity db);
  Db.put db ~key:"post-crash" ~value:"ok";
  Alcotest.(check (option string)) "writable after recovery" (Some "ok")
    (Db.get db "post-crash");
  Db.close db

let crash_after_compaction () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  for i = 0 to 499 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(string_of_int i)
  done;
  Db.compact_now db;
  Db.simulate_crash db;
  let db = Db.open_store opts in
  let missing = ref 0 in
  for i = 0 to 499 do
    if Db.get db (Printf.sprintf "k%04d" i) <> Some (string_of_int i) then
      incr missing
  done;
  Alcotest.(check int) "compacted data intact" 0 !missing;
  Alcotest.(check (list string)) "verifies" [] (Db.verify_integrity db);
  Db.close db

(* ---------- verify_integrity ---------- *)

let verify_healthy_store () =
  with_store (fun db _ ->
      for i = 0 to 999 do
        Db.put db ~key:(Printf.sprintf "k%05d" i) ~value:"v"
      done;
      Db.compact_now db;
      Alcotest.(check (list string)) "healthy" [] (Db.verify_integrity db))

let verify_detects_corruption () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  for i = 0 to 999 do
    Db.put db ~key:(Printf.sprintf "k%05d" i) ~value:(String.make 64 'v')
  done;
  Db.compact_now db;
  Db.close db;
  (* Flip a byte in some table file's data region. *)
  let sst =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sst")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir sst in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 100 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad") 0 2);
  Unix.close fd;
  (* Hold the self-healing machinery off: with the default options the
     background scrub detects the rotten table and auto-repair then
     discards it so fast that verify_integrity finds a clean store —
     here the point is that verify itself detects the damage. *)
  let db =
    Db.open_store { opts with Options.scrub_interval = 0.0; auto_repair = false }
  in
  Alcotest.(check bool) "corruption reported" true
    (Db.verify_integrity db <> []);
  Db.close db

let repair_rebuilds_manifest () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  for i = 0 to 599 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(string_of_int i)
  done;
  Db.compact_now db;
  Db.put db ~key:"k0001" ~value:"overwritten";
  Db.compact_now db;
  Db.close db;
  (* lose the manifest *)
  Sys.remove (Clsm_lsm.Table_file.manifest_path ~dir);
  Db.repair ~dir ();
  let db = Db.open_store opts in
  let missing = ref 0 in
  for i = 2 to 599 do
    if Db.get db (Printf.sprintf "k%04d" i) <> Some (string_of_int i) then
      incr missing
  done;
  Alcotest.(check int) "all values recovered" 0 !missing;
  Alcotest.(check (option string)) "newest version wins after repair"
    (Some "overwritten") (Db.get db "k0001");
  (* the repaired counter must stay ahead of recovered timestamps *)
  Db.put db ~key:"k0001" ~value:"post-repair";
  Alcotest.(check (option string)) "new writes visible" (Some "post-repair")
    (Db.get db "k0001");
  Alcotest.(check (list string)) "verifies" [] (Db.verify_integrity db);
  Db.close db

let repair_sets_aside_damaged_tables () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  for i = 0 to 599 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"v"
  done;
  Db.compact_now db;
  Db.close db;
  (* corrupt one table and lose the manifest *)
  let ssts =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sst")
    |> List.sort compare
  in
  let victim = Filename.concat dir (List.hd ssts) in
  let fd = Unix.openfile victim [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 50 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 8 '\xff') 0 8);
  Unix.close fd;
  Sys.remove (Clsm_lsm.Table_file.manifest_path ~dir);
  Db.repair ~dir ();
  Alcotest.(check bool) "victim renamed aside" true
    (Sys.file_exists (victim ^ ".damaged"));
  let db = Db.open_store opts in
  Alcotest.(check (list string)) "store healthy after repair" []
    (Db.verify_integrity db);
  Db.close db

let table_verify_direct () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "direct.sst" in
  let b =
    Clsm_sstable.Table_builder.create ~block_size:256
      ~cmp:Clsm_sstable.Comparator.bytewise ~path ()
  in
  for i = 0 to 499 do
    Clsm_sstable.Table_builder.add b ~key:(Printf.sprintf "k%05d" i) ~value:"v"
  done;
  ignore (Clsm_sstable.Table_builder.finish b);
  let t = Clsm_sstable.Table.open_file ~cmp:Clsm_sstable.Comparator.bytewise path in
  (match Clsm_sstable.Table.verify t with
  | Ok n -> Alcotest.(check int) "entry count" 500 n
  | Error e -> Alcotest.fail e);
  Clsm_sstable.Table.close t

let suites =
  [
    ( "features.log_record",
      Alcotest.test_case "batch roundtrip" `Quick log_record_roundtrip
      :: List.map QCheck_alcotest.to_alcotest [ prop_log_record_batch ] );
    ( "features.batch",
      [
        Alcotest.test_case "basic" `Quick batch_basic;
        Alcotest.test_case "atomic vs snapshots" `Quick batch_atomic_vs_snapshots;
        Alcotest.test_case "durable all-or-nothing" `Quick
          batch_durable_all_or_nothing;
        Alcotest.test_case "recovery" `Quick batch_recovery;
      ] );
    ( "features.snapshots",
      [
        Alcotest.test_case "registry basics" `Quick registry_basics;
        Alcotest.test_case "release unlinks" `Quick registry_remove_unlinks;
        Alcotest.test_case "first put vs snapshot" `Quick first_put_vs_snapshot;
        Alcotest.test_case "ttl release" `Quick ttl_snapshot_released_for_gc;
      ] );
    ( "features.crash",
      [
        Alcotest.test_case "async tail only" `Quick
          crash_loses_unflushed_async_tail_only;
        Alcotest.test_case "after compaction" `Quick crash_after_compaction;
      ] );
    ( "features.verify",
      [
        Alcotest.test_case "healthy store" `Quick verify_healthy_store;
        Alcotest.test_case "detects corruption" `Quick verify_detects_corruption;
        Alcotest.test_case "table verify direct" `Quick table_verify_direct;
      ] );
    ( "features.repair",
      [
        Alcotest.test_case "rebuilds manifest" `Quick repair_rebuilds_manifest;
        Alcotest.test_case "sets aside damaged tables" `Quick
          repair_sets_aside_damaged_tables;
      ] );
  ]
