(* Edge cases across the stack: iterators pinned across compactions,
   released-snapshot misuse, sync-WAL durability, empty stores, validator
   negatives, capacity limits. *)

open Clsm_core

let fresh_dir = Test_dirs.fresh "edge"

let small_opts ?(wal_sync = `Async) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 16 * 1024;
    wal_sync;
    cache_bytes = 1 lsl 20;
    lsm =
      {
        base.Options.lsm with
        Clsm_lsm.Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 16 * 1024;
        block_size = 1024;
        l0_compaction_trigger = 2;
      };
  }

(* ---------- iterators pinned across compactions ---------- *)

(* An open iterator holds a reference on the disk component; a
   compaction that obsoletes and deletes the underlying files must not
   disturb it. Opened while its keys are still in Pm, the iterator holds
   the memtable itself, with no count: rotation and flush (which deletes
   the memtable's WAL) swap it out, and the GC alone keeps it readable. *)
let iterator_survives_compaction_from ~in_pm =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db =
    Db.open_store
      (if in_pm then { opts with Options.memtable_bytes = 1 lsl 20 } else opts)
  in
  let n = 800 in
  for i = 0 to n - 1 do
    Db.put db ~key:(Printf.sprintf "k%05d" i) ~value:(string_of_int i)
  done;
  if not in_pm then Db.compact_now db;
  let it = Db.iterator db in
  Db.iter_seek_first it;
  (* consume a prefix *)
  for _ = 1 to 100 do
    Db.iter_next it
  done;
  if in_pm then begin
    Alcotest.(check int) "iterator opened over Pm alone" 0
      (List.fold_left ( + ) 0 (Db.level_file_counts db));
    (* rotate, then flush: the iterator's memtable leaves Pm and P'm *)
    Db.compact_now db
  end;
  (* rewrite everything and compact twice: the iterator's files become
     obsolete and are unlinked once unpinned *)
  for i = 0 to n - 1 do
    Db.put db ~key:(Printf.sprintf "k%05d" i) ~value:"NEW"
  done;
  Db.compact_now db;
  Db.compact_now db;
  (* the iterator must still read the old values to the end *)
  let count = ref 100 and wrong = ref 0 in
  while Db.iter_valid it do
    let k = Db.iter_key it and v = Db.iter_value it in
    let i = int_of_string (String.sub k 1 5) in
    if v <> string_of_int i then incr wrong;
    incr count;
    Db.iter_next it
  done;
  Alcotest.(check int) "iterator saw every old binding" n !count;
  Alcotest.(check int) "iterator never saw new values" 0 !wrong;
  Db.iter_close it;
  (* after closing, live reads see the new values *)
  Alcotest.(check (option string)) "live read" (Some "NEW") (Db.get db "k00042");
  Db.close db

let iterator_survives_compaction () =
  iterator_survives_compaction_from ~in_pm:false;
  iterator_survives_compaction_from ~in_pm:true

let snapshot_read_through_compacted_files () =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  for i = 0 to 400 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"v1"
  done;
  Db.compact_now db;
  let s = Db.get_snap db in
  for i = 0 to 400 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"v2"
  done;
  Db.compact_now db;
  Db.compact_now db;
  let wrong = ref 0 in
  for i = 0 to 400 do
    if Db.get_at db s (Printf.sprintf "k%04d" i) <> Some "v1" then incr wrong
  done;
  Alcotest.(check int) "snapshot stable across compactions" 0 !wrong;
  Db.release_snapshot db s;
  Db.close db

(* ---------- misuse ---------- *)

let released_snapshot_rejected () =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  Db.put db ~key:"k" ~value:"v";
  let s = Db.get_snap db in
  Db.release_snapshot db s;
  (match Db.get_at db s "k" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read through released snapshot accepted");
  Db.close db

let close_is_idempotent () =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  Db.put db ~key:"k" ~value:"v";
  Db.close db;
  Db.close db

(* ---------- sync WAL durability ---------- *)

let sync_wal_survives_crash_without_flush () =
  let dir = fresh_dir () in
  let opts = small_opts ~wal_sync:`Per_write dir in
  let db = Db.open_store opts in
  for i = 0 to 49 do
    Db.put db ~key:(Printf.sprintf "k%03d" i) ~value:"durable"
  done;
  (* no flush_wal: sync mode must have persisted every put already *)
  Db.simulate_crash db;
  let db = Db.open_store opts in
  let missing = ref 0 in
  for i = 0 to 49 do
    if Db.get db (Printf.sprintf "k%03d" i) = None then incr missing
  done;
  Alcotest.(check int) "sync WAL loses nothing" 0 !missing;
  Db.close db

(* ---------- empty / degenerate stores ---------- *)

let empty_store_operations () =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  Alcotest.(check (list (pair string string))) "empty range" [] (Db.range db);
  let it = Db.iterator db in
  Db.iter_seek_first it;
  Alcotest.(check bool) "empty iterator invalid" false (Db.iter_valid it);
  Db.iter_seek it "anything";
  Alcotest.(check bool) "seek on empty invalid" false (Db.iter_valid it);
  Db.iter_close it;
  Alcotest.(check (list string)) "empty store verifies" []
    (Db.verify_integrity db);
  Db.compact_now db;
  Alcotest.(check int) "no files created" 0
    (List.fold_left ( + ) 0 (Db.level_file_counts db));
  let s = Db.get_snap db in
  Alcotest.(check (option string)) "snapshot of empty" None (Db.get_at db s "x");
  Db.release_snapshot db s;
  Db.close db;
  (* reopen of an empty store *)
  let db = Db.open_store (small_opts dir) in
  Alcotest.(check (option string)) "still empty" None (Db.get db "x");
  Db.close db

let large_values_roundtrip () =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  (* values far larger than the block size *)
  let big = String.init 100_000 (fun i -> Char.chr (32 + (i mod 90))) in
  Db.put db ~key:"big1" ~value:big;
  Db.put db ~key:"big2" ~value:(String.make 50_000 'q');
  Db.compact_now db;
  Alcotest.(check bool) "big value intact on disk" true
    (Db.get db "big1" = Some big);
  Alcotest.(check (list string)) "verifies" [] (Db.verify_integrity db);
  Db.close db

let empty_key_and_value () =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  Db.put db ~key:"" ~value:"empty-key";
  Db.put db ~key:"k" ~value:"";
  Db.compact_now db;
  Alcotest.(check (option string)) "empty key" (Some "empty-key") (Db.get db "");
  Alcotest.(check (option string)) "empty value" (Some "") (Db.get db "k");
  Db.close db;
  let db = Db.open_store (small_opts dir) in
  Alcotest.(check (option string)) "empty key recovered" (Some "empty-key")
    (Db.get db "");
  Db.close db

(* ---------- validator negatives ---------- *)

let validate_detects_level_overlap () =
  let open Clsm_lsm in
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let make_file number lo hi =
    let b =
      Clsm_sstable.Table_builder.create ~cmp:Internal_key.comparator
        ~path:(Table_file.table_path ~dir number)
        ()
    in
    Clsm_sstable.Table_builder.add b ~key:(Internal_key.make lo 1) ~value:"\000x";
    Clsm_sstable.Table_builder.add b ~key:(Internal_key.make hi 2) ~value:"\000y";
    ignore (Clsm_sstable.Table_builder.finish b);
    Clsm_primitives.Refcounted.create ~release:Table_file.release
      (Table_file.open_number ~dir number)
  in
  let f1 = make_file 1 "a" "m" in
  let f2 = make_file 2 "k" "z" in
  (* deliberately overlapping at level 1 *)
  let levels = Array.make 2 [] in
  levels.(0) <- [ f1; f2 ];
  let v = Version.create ~l0:[] ~levels in
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "overlap reported" true
    (List.exists (fun p -> contains_sub p "overlap") (Version.validate v));
  Version.release v;
  List.iter Clsm_primitives.Refcounted.retire [ f1; f2 ]

(* ---------- cache / active set limits ---------- *)

let cache_clear_and_stats () =
  let c = Clsm_sstable.Cache.create ~shards:2 ~capacity:10 ~weight:(fun _ -> 1) () in
  Clsm_sstable.Cache.insert c 1 1;
  Clsm_sstable.Cache.insert c 2 2;
  Alcotest.(check int) "cardinal" 2 (Clsm_sstable.Cache.cardinal c);
  Clsm_sstable.Cache.remove_range c ~lo:0 ~hi:max_int;
  Alcotest.(check int) "cleared" 0 (Clsm_sstable.Cache.cardinal c);
  Alcotest.(check (option int)) "miss after clear" None
    (Clsm_sstable.Cache.find c 1)

let active_set_tiny_capacity_contention () =
  let open Clsm_primitives in
  let s = Active_set.create ~capacity:2 () in
  let worker seed () =
    for i = 1 to 2_000 do
      let h = Active_set.add s ((seed * 1_000_000) + i) in
      Active_set.remove s h
    done
  in
  List.map Domain.spawn [ worker 1; worker 2 ] |> List.iter Domain.join;
  Alcotest.(check int) "drained" 0 (Active_set.cardinal s)

(* ---------- sim sanity extras ---------- *)

let sim_partitioned_deterministic () =
  let open Clsm_sim_lsm in
  let spec = Clsm_workload.Workload_spec.production ~read_ratio:0.9 ~space:100_000 in
  let cfg =
    Experiment.config ~duration:0.05 ~system:System.Leveldb ~threads:8 spec
  in
  let a = Experiment.run_partitioned ~partitions:4 cfg in
  let b = Experiment.run_partitioned ~partitions:4 cfg in
  Alcotest.(check int) "deterministic" a.Experiment.ops b.Experiment.ops;
  Alcotest.(check bool) "did work" true (a.Experiment.ops > 0);
  match Experiment.run_partitioned ~partitions:3 cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threads not divisible by partitions accepted"

let suites =
  [
    ( "edge.iterators",
      [
        Alcotest.test_case "iterator survives compaction" `Quick
          iterator_survives_compaction;
        Alcotest.test_case "snapshot reads through compactions" `Quick
          snapshot_read_through_compacted_files;
      ] );
    ( "edge.misuse",
      [
        Alcotest.test_case "released snapshot rejected" `Quick
          released_snapshot_rejected;
        Alcotest.test_case "close idempotent" `Quick close_is_idempotent;
      ] );
    ( "edge.durability",
      [
        Alcotest.test_case "sync WAL survives crash" `Quick
          sync_wal_survives_crash_without_flush;
      ] );
    ( "edge.degenerate",
      [
        Alcotest.test_case "empty store" `Quick empty_store_operations;
        Alcotest.test_case "large values" `Quick large_values_roundtrip;
        Alcotest.test_case "empty key/value" `Quick empty_key_and_value;
      ] );
    ( "edge.validate",
      [
        Alcotest.test_case "level overlap detected" `Quick
          validate_detects_level_overlap;
      ] );
    ( "edge.limits",
      [
        Alcotest.test_case "cache clear" `Quick cache_clear_and_stats;
        Alcotest.test_case "tiny active set under contention" `Quick
          active_set_tiny_capacity_contention;
      ] );
    ( "edge.sim",
      [
        Alcotest.test_case "partitioned runs deterministic" `Quick
          sim_partitioned_deterministic;
      ] );
  ]
