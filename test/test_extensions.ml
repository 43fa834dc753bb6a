(* Tests for the substrate extensions: refusal of compressed blocks,
   trace record/replay, YCSB workloads, multi_get, compaction
   round-robin. *)

open Clsm_workload

let fresh_dir = Test_dirs.fresh "ext"

(* ---------- compressed blocks are refused ---------- *)

(* Tables are written uncompressed; the block trailer's type byte is
   still read, so a block marked compressed (type 1) under a valid
   checksum is reported as corruption, never decoded as plain bytes.
   [mark_first_block_compressed path] rewrites the first data block's
   trailer so. *)
let mark_first_block_compressed path =
  let module T = Clsm_sstable.Table in
  let t = T.open_file ~cmp:Clsm_sstable.Comparator.bytewise path in
  let size =
    match T.index_anchors t with
    | (_, size) :: _ -> size
    | [] -> Alcotest.fail "table without data blocks"
  in
  T.close t;
  let raw = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  Alcotest.(check char) "stored uncompressed" '\000' (Bytes.get raw size);
  Bytes.set raw size '\001';
  let crc = Clsm_util.Crc32c.sub (Bytes.unsafe_to_string raw) ~pos:0 ~len:(size + 1) in
  Clsm_util.Binary.put_fixed32 raw ~pos:(size + 1) (Clsm_util.Crc32c.mask crc);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc raw)

let compressed_table_refused () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let module T = Clsm_sstable.Table in
  let module TB = Clsm_sstable.Table_builder in
  let path = Filename.concat dir "marked.sst" in
  let b = TB.create ~block_size:1024 ~cmp:Clsm_sstable.Comparator.bytewise ~path () in
  for i = 0 to 1999 do
    TB.add b ~key:(Printf.sprintf "key%06d" i) ~value:(String.make 40 'p')
  done;
  ignore (TB.finish b);
  mark_first_block_compressed path;
  let t = T.open_file ~cmp:Clsm_sstable.Comparator.bytewise path in
  (match T.verify t with
  | Ok _ -> Alcotest.fail "verify accepted a compressed block"
  | Error detail ->
      let n = String.length "compressed" in
      let rec names i =
        i + n <= String.length detail
        && (String.sub detail i n = "compressed" || names (i + 1))
      in
      Alcotest.(check bool) ("verify names it: " ^ detail) true (names 0));
  (match T.find_last_le t "key000000" with
  | exception T.Corrupt _ -> ()
  | _ -> Alcotest.fail "a compressed block was read as plain");
  T.close t

let compressed_store_refused () =
  let dir = fresh_dir () in
  let base = Clsm_core.Options.default ~dir in
  let opts =
    {
      base with
      Clsm_core.Options.memtable_bytes = 16 * 1024;
      scrub_interval = 0.0;
      lsm = { base.Clsm_core.Options.lsm with Clsm_lsm.Lsm_config.block_size = 1024 };
    }
  in
  let db = Clsm_core.Db.open_store opts in
  for i = 0 to 99 do
    Clsm_core.Db.put db ~key:(Printf.sprintf "k%05d" i) ~value:(String.make 100 'v')
  done;
  Clsm_core.Db.compact_now db;
  Clsm_core.Db.close db;
  let tables =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sst")
  in
  Alcotest.(check int) "one table" 1 (List.length tables);
  mark_first_block_compressed (Filename.concat dir (List.hd tables));
  let db = Clsm_core.Db.open_store opts in
  Alcotest.(check bool) "verify_integrity reports the table" true
    (Clsm_core.Db.verify_integrity db <> []);
  (match Clsm_core.Db.range db with
  | exception Clsm_lsm.Table_file.Corruption _ -> ()
  | _ -> Alcotest.fail "a scan read a compressed block as plain");
  Clsm_core.Db.close db

(* ---------- Trace ---------- *)

let trace_line_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "line roundtrip" true
        (Trace.op_of_line (Trace.op_to_line op) = Some op))
    [
      Trace.Get "key1";
      Trace.Put ("key2", 256);
      Trace.Delete "key3";
      Trace.Scan ("key4", 17);
      Trace.Rmw ("key5", 1024);
    ];
  Alcotest.(check bool) "comment skipped" true (Trace.op_of_line "# hi" = None);
  Alcotest.(check bool) "blank skipped" true (Trace.op_of_line "   " = None);
  match Trace.op_of_line "X bogus" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed line accepted"

let trace_synthesize_and_stats () =
  let file = Filename.concat (Filename.get_temp_dir_name ()) "clsm_trace_test" in
  let spec = Workload_spec.production ~read_ratio:0.9 ~space:5_000 in
  Trace.synthesize ~spec ~count:20_000 file;
  let ops = Trace.load file in
  let s = Trace.stats_of ops in
  Alcotest.(check int) "count" 20_000 s.Trace.total;
  let read_frac = float_of_int s.Trace.reads /. float_of_int s.Trace.total in
  Alcotest.(check bool)
    (Printf.sprintf "read ratio %.2f ~ 0.9" read_frac)
    true
    (read_frac > 0.87 && read_frac < 0.93);
  Alcotest.(check bool) "heavy tail locality" true (s.Trace.top_decile_share > 0.6);
  Alcotest.(check bool) "some deletes sprinkled" true (s.Trace.deletes > 0);
  Sys.remove file

let trace_replay_end_to_end () =
  let file = Filename.concat (Filename.get_temp_dir_name ()) "clsm_trace_replay" in
  let spec =
    Workload_spec.make ~name:"t" ~read:0.5 ~write:0.5 ~key_len:8 ~value_len:64
      (Clsm_workload.Key_dist.uniform 500)
  in
  Trace.synthesize ~spec ~count:5_000 file;
  let dir = fresh_dir () in
  let store =
    Store_ops.open_clsm
      { (Clsm_core.Options.default ~dir) with Clsm_core.Options.memtable_bytes = 1 lsl 20 }
  in
  let r = Trace.replay store (Trace.load file) in
  Alcotest.(check int) "all ops replayed" 5_000 r.Driver.ops;
  Alcotest.(check bool) "throughput positive" true (r.Driver.throughput > 0.0);
  store.Store_ops.close ();
  Sys.remove file

(* ---------- YCSB ---------- *)

let ycsb_specs_shape () =
  let space = 1_000 in
  let a = Ycsb.workload_a ~space in
  Alcotest.(check bool) "A is 50/50" true
    (abs_float (a.Workload_spec.read_ratio -. 0.5) < 0.001
    && abs_float (a.Workload_spec.write_ratio -. 0.5) < 0.001);
  let c = Ycsb.workload_c ~space in
  Alcotest.(check bool) "C is read-only" true
    (c.Workload_spec.read_ratio = 1.0);
  let e = Ycsb.workload_e ~space in
  Alcotest.(check bool) "E is scan-heavy" true (e.Workload_spec.scan_ratio > 0.9);
  let f = Ycsb.workload_f ~space in
  Alcotest.(check bool) "F has RMW" true (f.Workload_spec.rmw_ratio > 0.49);
  Alcotest.(check int) "six workloads" 6 (List.length (Ycsb.all ~space))

let ycsb_a_runs_against_store () =
  let dir = fresh_dir () in
  let store =
    Store_ops.open_clsm
      { (Clsm_core.Options.default ~dir) with Clsm_core.Options.memtable_bytes = 1 lsl 20 }
  in
  let spec = Ycsb.workload_a ~space:500 in
  Driver.preload store spec ~count:500;
  let r = Driver.run ~threads:2 ~ops_per_thread:1_000 store spec in
  Alcotest.(check int) "ops" 2_000 r.Driver.ops;
  store.Store_ops.close ()

(* ---------- multi_get ---------- *)

let multi_get_consistent () =
  let dir = fresh_dir () in
  let db =
    Clsm_core.Db.open_store
      { (Clsm_core.Options.default ~dir) with Clsm_core.Options.memtable_bytes = 1 lsl 20 }
  in
  Clsm_core.Db.put db ~key:"a" ~value:"1";
  Clsm_core.Db.put db ~key:"b" ~value:"2";
  Alcotest.(check (list (pair string (option string))))
    "values and misses"
    [ ("a", Some "1"); ("missing", None); ("b", Some "2") ]
    (Clsm_core.Db.multi_get db [ "a"; "missing"; "b" ]);
  (* concurrent writers can't tear a multi_get *)
  let stop = Atomic.make false in
  let writer () =
    let i = ref 0 in
    while not (Atomic.get stop) do
      incr i;
      Clsm_core.Db.put db ~key:"x" ~value:(string_of_int !i);
      Clsm_core.Db.put db ~key:"y" ~value:(string_of_int !i)
    done;
    0
  in
  let auditor () =
    let bad = ref 0 in
    for _ = 1 to 500 do
      match Clsm_core.Db.multi_get db [ "x"; "y" ] with
      | [ (_, Some x); (_, Some y) ] when int_of_string y > int_of_string x ->
          incr bad
      | [ (_, None); (_, Some _) ] -> incr bad
      | _ -> ()
    done;
    Atomic.set stop true;
    !bad
  in
  let results = List.map Domain.spawn [ writer; auditor ] |> List.map Domain.join in
  Alcotest.(check int) "never torn" 0 (List.nth results 1);
  Clsm_core.Db.close db

(* ---------- compaction round-robin pointer ---------- *)

let compaction_pointer_cycles () =
  let open Clsm_lsm in
  (* Three disjoint L1 files over budget: successive picks with an evolving
     pointer must rotate through them rather than hammering the first. *)
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let make_file number lo hi =
    let b =
      Clsm_sstable.Table_builder.create ~cmp:Internal_key.comparator
        ~path:(Table_file.table_path ~dir number)
        ()
    in
    Clsm_sstable.Table_builder.add b ~key:(Internal_key.make lo 1)
      ~value:(Entry.encode (Entry.Value (String.make 600 'x')));
    Clsm_sstable.Table_builder.add b ~key:(Internal_key.make hi 2)
      ~value:(Entry.encode (Entry.Value (String.make 600 'x')));
    ignore (Clsm_sstable.Table_builder.finish b);
    Clsm_primitives.Refcounted.create ~release:Table_file.release
      (Table_file.open_number ~dir number)
  in
  let f1 = make_file 1 "a" "b" in
  let f2 = make_file 2 "c" "d" in
  let f3 = make_file 3 "e" "f" in
  let levels = Array.make 3 [] in
  levels.(0) <- [ f1; f2; f3 ];
  let v = Version.create ~l0:[] ~levels in
  let cfg = { Lsm_config.default with Lsm_config.level1_max_bytes = 1 } in
  let pointers = Array.make 3 "" in
  let picked = ref [] in
  for _ = 1 to 4 do
    match Compaction.pick ~cfg ~level_pointers:pointers v with
    | Some task ->
        let tf =
          Clsm_primitives.Refcounted.value (List.hd task.Compaction.inputs_lo)
        in
        picked := tf.Table_file.number :: !picked;
        pointers.(0) <- tf.Table_file.largest
    | None -> Alcotest.fail "expected a task"
  done;
  Alcotest.(check (list int)) "round robin then wrap" [ 1; 2; 3; 1 ]
    (List.rev !picked);
  Version.release v;
  List.iter Clsm_primitives.Refcounted.retire [ f1; f2; f3 ]

let suites =
  [
    ( "ext.compress",
      [
        Alcotest.test_case "compressed table" `Quick compressed_table_refused;
        Alcotest.test_case "compressed store e2e" `Quick compressed_store_refused;
      ] );
    ( "ext.trace",
      [
        Alcotest.test_case "line roundtrip" `Quick trace_line_roundtrip;
        Alcotest.test_case "synthesize + stats" `Quick trace_synthesize_and_stats;
        Alcotest.test_case "replay end to end" `Quick trace_replay_end_to_end;
      ] );
    ( "ext.ycsb",
      [
        Alcotest.test_case "spec shapes" `Quick ycsb_specs_shape;
        Alcotest.test_case "A runs against store" `Quick ycsb_a_runs_against_store;
      ] );
    ( "ext.multi_get",
      [ Alcotest.test_case "consistent" `Quick multi_get_consistent ] );
    ( "ext.compaction_pointer",
      [ Alcotest.test_case "cycles through level" `Quick compaction_pointer_cycles ] );
  ]
