(* Fault-injection tests: the Faulty_env wrapper itself, the WAL
   writer's fsync-gate, read-only degradation on ENOSPC, orphan cleanup
   after a mid-flush crash, strict WAL recovery, and the crash ordering
   of the install step at every IO operation of every edit kind. The
   multi-seed crash-recovery torture harness lives in test_torture.ml. *)

open Clsm_core
open Clsm_lsm
open Clsm_env

let fresh_dir = Test_dirs.fresh "fault"

let small_opts ?(env = Env.unix) ?(wal_enabled = true) ?(wal_sync = `Async)
    ?(strict_wal = false) ?(memtable_bytes = 16 * 1024) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes;
    wal_enabled;
    wal_sync;
    strict_wal;
    env;
    cache_bytes = 1 lsl 20;
    maintenance_workers = 1;
    lsm =
      {
        base.Options.lsm with
        Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 8 * 1024;
        l0_compaction_trigger = 3;
        block_size = 1024;
      };
  }

(* ---------- Faulty_env mechanics ---------- *)

let crash_countdown () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let f = Faulty_env.create ~seed:42 () in
  let env = Faulty_env.env f in
  Faulty_env.arm f ~crash_after:2;
  let w = Env.(env.create_writer) (Filename.concat dir "a") in
  Env.(w.w_append) "survives";
  (match Env.(w.w_append) "boom" with
  | () -> Alcotest.fail "expected crash on the third mutating op"
  | exception Env.Crashed -> ());
  Alcotest.(check bool) "crashed flag" true (Faulty_env.crashed f);
  (* Every operation after the crash point raises, reads included. *)
  (match Env.(env.file_exists) dir with
  | _ -> Alcotest.fail "post-crash op must raise"
  | exception Env.Crashed -> ());
  Env.(w.w_close) ()

let crash_image_keeps_synced_prefix () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "img" in
  let f = Faulty_env.create ~seed:9 () in
  let env = Faulty_env.env f in
  let w = Env.(env.create_writer) path in
  Env.(w.w_append) "durable!";
  Env.(w.w_fsync) ();
  Env.(w.w_append) "-unsynced-tail";
  Faulty_env.arm f ~crash_after:0;
  (match Env.(w.w_append) "x" with
  | () -> Alcotest.fail "expected crash"
  | exception Env.Crashed -> ());
  Env.(w.w_close) ();
  Faulty_env.install_crash_image f;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "synced prefix intact" true
    (String.length contents >= 8 && String.sub contents 0 8 = "durable!");
  Alcotest.(check bool) "no bytes beyond written" true
    (String.length contents <= String.length "durable!-unsynced-tail")

(* ---------- Env.unix random reads ---------- *)

(* [rf_read] copies out of the mapping 8 bytes at a time plus a byte tail:
   check it against the file's bytes at every alignment, every short
   length, and reads that end on the last byte. *)
let unix_rf_read_exact () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "rf" in
  let contents = String.init 301 (fun i -> Char.chr ((i * 37 + 11) land 0xff)) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  let n = String.length contents in
  let rf = Env.unix.Env.open_random path in
  Alcotest.(check int) "length" n rf.Env.rf_length;
  for pos = 0 to 23 do
    for len = 0 to 17 do
      Alcotest.(check string)
        (Printf.sprintf "pos=%d len=%d" pos len)
        (String.sub contents pos len)
        (rf.Env.rf_read ~pos ~len)
    done
  done;
  for len = 0 to 40 do
    Alcotest.(check string)
      (Printf.sprintf "tail len=%d" len)
      (String.sub contents (n - len) len)
      (rf.Env.rf_read ~pos:(n - len) ~len)
  done;
  Alcotest.(check string) "whole file" contents (rf.Env.rf_read ~pos:0 ~len:n);
  let out_of_bounds (pos, len) =
    match rf.Env.rf_read ~pos ~len with
    | _ -> Alcotest.failf "pos=%d len=%d must raise" pos len
    | exception Invalid_argument _ -> ()
  in
  List.iter out_of_bounds [ (-1, 1); (0, -1); (n - 7, 8); (n, 1); (0, n + 1) ];
  (* Closing twice is harmless. *)
  rf.Env.rf_close ();
  rf.Env.rf_close ();
  match rf.Env.rf_read ~pos:0 ~len:8 with
  | _ -> Alcotest.fail "read after close must raise"
  | exception Invalid_argument _ -> ()

(* ---------- WAL fsync-gate ---------- *)

let fsync_gate_poisons_writer () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let f = Faulty_env.create ~seed:7 ~fsync_fail_1_in:1 () in
  let path = Filename.concat dir "gate.log" in
  let w =
    Clsm_wal.Wal_writer.create
      ~mode:(Clsm_wal.Wal_writer.Group { max_batch = 1; max_delay_us = 0 })
      ~env:(Faulty_env.env f) path
  in
  (match Clsm_wal.Wal_writer.append w "r1" with
  | () -> Alcotest.fail "expected fsync failure"
  | exception Env.Error _ -> ());
  (* The fault is gone, but the writer must stay poisoned: it cannot know
     which of its earlier acknowledgements actually reached disk. *)
  Faulty_env.set_fault_rates f ~fsync_fail_1_in:0 ();
  (match Clsm_wal.Wal_writer.append w "r2" with
  | () -> Alcotest.fail "writer must stay poisoned after an IO failure"
  | exception Env.Error _ -> ());
  Alcotest.(check bool) "poisoned" true (Clsm_wal.Wal_writer.poisoned w);
  Clsm_wal.Wal_writer.abandon w

(* ---------- read-only degradation ---------- *)

let enospc_degrades_to_read_only () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:3 () in
  let opts =
    {
      (small_opts ~env:(Faulty_env.env f) ~wal_enabled:false
         ~memtable_bytes:(1 lsl 20) dir)
      with
      (* this test is about the degraded END state, not the healing
         around it: no retry, no auto-repair *)
      Options.retry = Clsm_env.Retry_policy.none;
      auto_repair = false;
    }
  in
  let db = Db.open_store opts in
  for i = 1 to 200 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(String.make 40 'v')
  done;
  (* From here every append fails: the flush inside compact_now hits
     ENOSPC, which must degrade the store, not kill it. *)
  Faulty_env.set_fault_rates f ~append_fail_1_in:1 ();
  Db.compact_now db;
  (match Db.health db with
  | `Degraded _ -> ()
  | `Ok | `Partial _ ->
      Alcotest.fail "store should be degraded after ENOSPC flush");
  (* Reads still serve from the in-memory components... *)
  Alcotest.(check (option string)) "reads survive" (Some (String.make 40 'v'))
    (Db.get db "k0001");
  (* ...writes are refused with the original failure as context. *)
  (match Db.put db ~key:"new" ~value:"x" with
  | () -> Alcotest.fail "writes must be refused when degraded"
  | exception Store_sig.Degraded _ -> ());
  (match Db.write_batch db [ Db.Batch_put ("b", "1") ] with
  | () -> Alcotest.fail "batches must be refused when degraded"
  | exception Store_sig.Degraded _ -> ());
  Faulty_env.set_fault_rates f ~append_fail_1_in:0 ();
  Db.close db;
  (* The directory reopens cleanly with a healthy environment. *)
  let db = Db.open_store { opts with Options.env = Env.unix } in
  Alcotest.(check (list string)) "consistent after reopen" []
    (Db.verify_integrity db);
  Db.close db

(* The same ENOSPC, healed by the store alone: once the fault clears,
   the Repair job's retry falls due with time, so an idle store must
   lift [`Degraded] without any call but [health]. *)
let idle_degraded_store_repairs_itself () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:3 () in
  let opts =
    {
      (small_opts ~env:(Faulty_env.env f) ~wal_enabled:false
         ~memtable_bytes:(1 lsl 20) dir)
      with
      Options.retry = Clsm_env.Retry_policy.none;
      auto_repair = true;
      scrub_interval = 0.0;
    }
  in
  let db = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      for i = 1 to 200 do
        Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(String.make 40 'v')
      done;
      Faulty_env.set_fault_rates f ~append_fail_1_in:1 ();
      Db.compact_now db;
      (match Db.health db with
      | `Degraded _ -> ()
      | `Ok | `Partial _ ->
          Alcotest.fail "store should be degraded after ENOSPC flush");
      (* The degradation woke a repair; let it fail on the live fault,
         so only its damped retry can heal the store. *)
      Unix.sleepf 0.2;
      Faulty_env.set_fault_rates f ~append_fail_1_in:0 ();
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Db.health db <> `Ok && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      (match Db.health db with
      | `Ok -> ()
      | `Degraded r | `Partial r -> Alcotest.failf "still unhealthy: %s" r);
      Db.put db ~key:"after" ~value:"x";
      Alcotest.(check (option string)) "writes accepted" (Some "x")
        (Db.get db "after");
      Alcotest.(check bool) "repair counted" true
        ((Db.stats db).Stats.auto_repairs >= 1))

(* ---------- orphan cleanup after a mid-flush crash ---------- *)

let mid_flush_crash_leaves_no_orphans () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:11 () in
  let opts = small_opts ~env:(Faulty_env.env f) ~wal_sync:`Per_write dir in
  let db = Db.open_store opts in
  for i = 1 to 300 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(String.make 64 'o')
  done;
  (* Crash a few IO operations into the flush: the table builder dies
     with a half-written .sst.tmp (and possibly published .sst files a
     later manifest save never recorded). *)
  Faulty_env.arm f ~crash_after:4;
  Db.compact_now db;
  Db.simulate_crash db;
  Faulty_env.install_crash_image f;
  let db = Db.open_store { opts with Options.env = Env.unix } in
  (* The replayed memtable is over budget, so a background flush starts
     at once; drain to quiescence before listing, or a table published
     a moment before its manifest save would read as an orphan. *)
  Db.compact_now db;
  let listing = Sys.readdir dir |> Array.to_list in
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        Alcotest.failf "stray temp file survived recovery: %s" name)
    listing;
  (match Manifest.load ~dir () with
  | None -> Alcotest.fail "manifest must exist after recovery"
  | Some (m, _) ->
      let live = List.map snd m.Manifest.files in
      List.iter
        (fun name ->
          match String.split_on_char '.' name with
          | [ num; "sst" ] ->
              let n = int_of_string num in
              if not (List.mem n live) then
                Alcotest.failf "orphan table survived recovery: %s" name
          | _ -> ())
        listing);
  (* All synchronously acknowledged writes are still there. *)
  for i = 1 to 300 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%04d recovered" i)
      (Some (String.make 64 'o'))
      (Db.get db (Printf.sprintf "k%04d" i))
  done;
  Alcotest.(check (list string)) "healthy" [] (Db.verify_integrity db);
  Db.close db

(* ---------- orphan cleanup after a mid-compaction crash ---------- *)

let mid_compaction_crash_leaves_no_orphans () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:23 () in
  let base = small_opts ~env:(Faulty_env.env f) ~wal_sync:`Per_write dir in
  let opts =
    {
      base with
      (* Large enough that nothing flushes until compact_now rotates, so
         each round's flush cost is deterministic and measurable; one
         flush = one L0 file (a ~21 KiB batch stays under the 32 KiB
         file-size cap), so rounds 1 and 2 are flush-only and the L0→L1
         merge fires exactly once, in round 3. *)
      Options.memtable_bytes = 1 lsl 20;
      lsm = { base.Options.lsm with Lsm_config.target_file_size = 32 * 1024 };
    }
  in
  (* No scheduler: the flush's install would wake a background worker,
     whose merge could then interleave with the flush's log removal and
     move the crash point. [compact_now] alone runs every job, in order. *)
  let db = Db.open_shard ~clock:(Clock.create ()) opts in
  let put_batch round =
    for i = 1 to 300 do
      Db.put db
        ~key:(Printf.sprintf "k%04d" i)
        ~value:(Printf.sprintf "r%d-%s" round (String.make 60 'v'))
    done
  in
  (* Rounds 1 and 2: flush-only (l0_compaction_trigger = 3 means two L0
     files never start a compaction). The second round's mutating-op
     delta measures the cost of flushing one batch. *)
  put_batch 1;
  Db.compact_now db;
  put_batch 2;
  let before = Faulty_env.mutating_ops f in
  Db.compact_now db;
  let flush_cost = Faulty_env.mutating_ops f - before in
  (* Round 3: the flush inside compact_now produces the third L0 file and
     the drain immediately runs the L0→L1 compaction. Crash two IO
     operations past the (identical) flush: the merge's output table has
     been created and partly appended, leaving a half-written .sst.tmp
     that no manifest records. *)
  put_batch 3;
  Faulty_env.arm f ~crash_after:(flush_cost + 2);
  Db.compact_now db;
  Alcotest.(check bool) "crash fired during the compaction" true
    (Faulty_env.crashed f);
  Alcotest.(check bool) "crash fired inside the merge's table write" true
    (Array.exists
       (fun name -> Filename.check_suffix name ".sst.tmp")
       (Sys.readdir dir));
  Db.simulate_crash db;
  Faulty_env.install_crash_image f;
  let db = Db.open_store { opts with Options.env = Env.unix } in
  (* The recovered L0 is back over the compaction trigger, so background
     workers restart the merge immediately; drain to quiescence before
     listing the directory or a legitimately in-flight output .tmp would
     race the stray-file check. *)
  Db.compact_now db;
  let st = Db.stats db in
  Alcotest.(check bool) "the recovered store re-ran the merge and timed it"
    true
    (st.Stats.compactions >= 1 && st.Stats.compaction_ns > 0);
  let listing = Sys.readdir dir |> Array.to_list in
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        Alcotest.failf "stray temp file survived recovery: %s" name)
    listing;
  (match Manifest.load ~dir () with
  | None -> Alcotest.fail "manifest must exist after recovery"
  | Some (m, _) ->
      let live = List.map snd m.Manifest.files in
      List.iter
        (fun name ->
          match String.split_on_char '.' name with
          | [ num; "sst" ] ->
              let n = int_of_string num in
              if not (List.mem n live) then
                Alcotest.failf "orphan table survived recovery: %s" name
          | _ -> ())
        listing);
  (* Every synchronously acknowledged write is still there, at its
     newest version. *)
  for i = 1 to 300 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%04d recovered" i)
      (Some (Printf.sprintf "r3-%s" (String.make 60 'v')))
      (Db.get db (Printf.sprintf "k%04d" i))
  done;
  Alcotest.(check (list string)) "healthy" [] (Db.verify_integrity db);
  Db.close db

(* ---------- strict WAL recovery ---------- *)

let strict_wal_fails_on_corrupt_tail () =
  let dir = fresh_dir () in
  let opts = small_opts ~wal_sync:`Per_write ~memtable_bytes:(1 lsl 20) dir in
  let db = Db.open_store opts in
  Db.put db ~key:"a" ~value:"1";
  Db.put db ~key:"b" ~value:"2";
  Db.put db ~key:"c" ~value:"3";
  Db.simulate_crash db;
  (* Flip a byte near the end of the live log: the final record's CRC no
     longer matches. *)
  let log =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".log")
    |> List.sort compare |> List.rev |> List.hd
  in
  let path = Filename.concat dir log in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string contents in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  (* Strict mode refuses to open... *)
  (match Db.open_store { opts with Options.strict_wal = true } with
  | db ->
      Db.close db;
      Alcotest.fail "strict_wal open must fail on a corrupt tail"
  | exception Clsm_wal.Wal_reader.Corrupt _ -> ());
  (* ...default mode salvages the prefix. *)
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "prefix salvaged" (Some "2") (Db.get db "b");
  Alcotest.(check (option string)) "torn record dropped" None (Db.get db "c");
  Db.close db

(* ---------- crash ordering of the install step ---------- *)

(* Every change to the disk component is committed by one install step
   (manifest before anything removed is let go). This is its spec: crash
   each kind of edit at every mutating IO operation of its job in turn,
   rebuild what the crash left on disk, and require that

   - every table the manifest names exists on disk,
   - after reopening, a scrub and a repair (which discards whatever
     rotten table the image still lists) return the store to [`Ok],
   - every key reads back one of the values [allowed] gives it,
   - verification is clean. *)

let crash_keys = 40
let crash_value round i = Printf.sprintf "r%d-%03d-%s" round i (String.make 80 'x')

let crash_opts ?(l0_trigger = 8) f dir =
  let base =
    small_opts ~env:(Faulty_env.env f) ~wal_sync:`Per_write
      ~memtable_bytes:(1 lsl 20) dir
  in
  {
    base with
    Options.scrub_interval = 0.0;
    auto_repair = false;
    lsm = { base.Options.lsm with Lsm_config.l0_compaction_trigger = l0_trigger };
  }

(* Opened with no scheduler: nothing but the job under test does
   maintenance IO. *)
let open_crash ?l0_trigger f dir =
  Db.open_shard ~clock:(Clock.create ()) (crash_opts ?l0_trigger f dir)

(* [rounds] rounds of puts over the same keys, each flushed to its own L0
   table; the last round is what must read back. *)
let crash_rounds db rounds =
  for round = 1 to rounds do
    for i = 1 to crash_keys do
      Db.put db ~key:(Printf.sprintf "k%03d" i) ~value:(crash_value round i)
    done;
    Db.compact_now db
  done

let table_numbers dir =
  match Manifest.load ~dir () with
  | Some (m, _) -> List.sort compare (List.map snd m.Manifest.files)
  | None -> Alcotest.fail "setup: no manifest"

(* Rot on the platter: four bytes of table [n]'s first data block. *)
let damage_table ~dir n =
  let fd = Unix.openfile (Table_file.table_path ~dir n) [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 64 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad\xbe\xef") 0 4);
  Unix.close fd

let check_crash_image ~allowed ~dir =
  (match Manifest.load ~dir () with
  | None -> Alcotest.fail "no manifest in the crash image"
  | Some (m, _) ->
      List.iter
        (fun (_, n) ->
          if not (Sys.file_exists (Table_file.table_path ~dir n)) then
            Alcotest.failf "manifest names missing table %06d" n)
        m.Manifest.files);
  let db = Db.open_store { (small_opts dir) with Options.auto_repair = false } in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      ignore (Db.scrub_now db : string list);
      (match Db.repair_now db with
      | `Ok -> ()
      | `Partial r | `Degraded r -> Alcotest.failf "repair after reopen: %s" r);
      for i = 1 to crash_keys do
        let got = Db.get db (Printf.sprintf "k%03d" i) in
        if not (List.mem got (allowed i)) then
          Alcotest.failf "k%03d = %s" i
            (Option.fold ~none:"<none>" ~some:(Printf.sprintf "%S") got)
      done;
      Alcotest.(check (list string)) "verify clean" [] (Db.verify_integrity db))

(* Crash [job] at mutating op k = 0, 1, ... until it completes, and
   [check] the store directory each time; returns how many crash points
   it had. *)
let crash_at_every_op ~prepare ~job ~check =
  let rec go k =
    let dir = fresh_dir () in
    let f = Faulty_env.create ~seed:(100 + k) () in
    let db = prepare f dir in
    Faulty_env.arm f ~crash_after:k;
    (try job f db with Env.Crashed -> ());
    let crashed = Faulty_env.crashed f in
    if crashed then begin
      Db.simulate_crash db;
      Faulty_env.install_crash_image f
    end
    else begin
      Faulty_env.disarm f;
      Db.close db
    end;
    check ~dir;
    if crashed then go (k + 1) else k
  in
  go 0

let install_crash_ordering () =
  let exactly i = [ Some (crash_value 2 i) ] in
  let compact _ db = Db.compact_now db in
  let cases =
    [
      ( "flush",
        (fun f dir ->
          let db = open_crash f dir in
          crash_rounds db 1;
          for i = 1 to crash_keys do
            Db.put db ~key:(Printf.sprintf "k%03d" i) ~value:(crash_value 2 i)
          done;
          db),
        compact,
        exactly );
      ( "compaction",
        (fun f dir ->
          let db = open_crash f dir in
          crash_rounds db 2;
          Db.close db;
          (* the same tables, now over the L0 trigger *)
          open_crash ~l0_trigger:2 f dir),
        compact,
        exactly );
      ( "discard",
        (fun f dir ->
          let db = open_crash f dir in
          crash_rounds db 2;
          Db.close db;
          (* the newer table rots on the platter; the scrub only queues
             its verdict, so the repair is the job under test *)
          damage_table ~dir (List.nth (table_numbers dir) 1);
          let db = open_crash f dir in
          (match Db.scrub_now db with
          | [] -> Alcotest.fail "setup: the scrub missed the damage"
          | _ -> ());
          db),
        (fun _ db -> ignore (Db.repair_now db)),
        (* the discarded table's keys read as the older table has them,
           never as bytes that were not written *)
        fun i -> [ Some (crash_value 2 i); Some (crash_value 1 i); None ] );
    ]
  in
  List.iter
    (fun (name, prepare, job, allowed) ->
      let points =
        crash_at_every_op ~prepare ~job ~check:(check_crash_image ~allowed)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: crashed at %d op(s) before completing" name points)
        true (points > 0))
    cases

let move_value i = crash_value (if i <= crash_keys / 2 then 1 else 2) i

(* Two flushes of disjoint key ranges, so two L0 tables that overlap
   nothing, reopened with an L0 trigger of 2: the next compaction is a
   move. Returns the store and the two table numbers, older first. *)
let two_disjoint_l0 f dir =
  let db = open_crash f dir in
  for round = 1 to 2 do
    for i = ((round - 1) * crash_keys / 2) + 1 to round * crash_keys / 2 do
      Db.put db ~key:(Printf.sprintf "k%03d" i) ~value:(move_value i)
    done;
    Db.compact_now db
  done;
  Db.close db;
  (open_crash ~l0_trigger:2 f dir, table_numbers dir)

(* A move installs by manifest edit alone, so its only crash points are
   the manifest save's: crash it at each one and require that every moved
   table exists and is listed exactly once, all of them at L0 (the old
   manifest) or all at L1 (the new one); that every key reads back; and
   that after the reopen no table file is an orphan. *)
let move_crash_ordering () =
  let moved = ref [] in
  let prepare f dir =
    let db, tables = two_disjoint_l0 f dir in
    moved := tables;
    db
  in
  let job f db =
    Db.compact_now db;
    if not (Faulty_env.crashed f) then begin
      let st = Db.stats db in
      Alcotest.(check int) "one move" 1 st.Stats.compaction_moves;
      Alcotest.(check int) "no merge" 0 st.Stats.compactions
    end
  in
  let check ~dir =
    (match Manifest.load ~dir () with
    | None -> Alcotest.fail "no manifest in the crash image"
    | Some (m, _) ->
        let levels =
          List.map
            (fun n ->
              if not (Sys.file_exists (Table_file.table_path ~dir n)) then
                Alcotest.failf "moved table %06d is gone" n;
              match List.filter (fun (_, n') -> n' = n) m.Manifest.files with
              | [ (level, _) ] -> level
              | l ->
                  Alcotest.failf "moved table %06d listed %d times" n
                    (List.length l))
            !moved
        in
        if not (List.for_all (( = ) 0) levels || List.for_all (( = ) 1) levels)
        then
          Alcotest.failf "moved tables at levels [%s]"
            (String.concat ";" (List.map string_of_int levels)));
    check_crash_image ~allowed:(fun i -> [ Some (move_value i) ]) ~dir;
    let live = table_numbers dir in
    Array.iter
      (fun name ->
        match String.split_on_char '.' name with
        | [ num; "sst" ] ->
            if not (List.mem (int_of_string num) live) then
              Alcotest.failf "orphan table %s" name
        | _ -> ())
      (Sys.readdir dir)
  in
  let points = crash_at_every_op ~prepare ~job ~check in
  Alcotest.(check int) "two tables moved" 2 (List.length !moved);
  Alcotest.(check int)
    "the move's crash points: manifest create, append, fsync, rename" 4 points

(* A discard that lands between a move's pick and its install takes a
   table out of the version: the move must not put it back, or the
   manifest would list a table that is set aside. *)
let move_skips_quarantined () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:7 () in
  let db, tables = two_disjoint_l0 f dir in
  let job =
    match Db.maintenance_next db with
    | Some (Clsm_maintenance.Job.Compact _ as job) -> job
    | Some _ | None -> Alcotest.fail "expected the L0 compaction claim"
  in
  (* the newer table holds keys 21..40 *)
  let rotten = List.nth tables 1 in
  damage_table ~dir rotten;
  ignore (Db.scrub_now db : string list);
  (match Db.repair_now db with
  | `Ok -> ()
  | `Partial r | `Degraded r -> Alcotest.failf "discard: %s" r);
  Db.maintenance_run db job;
  Alcotest.(check int) "the move was installed" 1
    (Db.stats db).Stats.compaction_moves;
  Alcotest.(check (list int)) "only the clean table is listed"
    (List.filter (( <> ) rotten) tables)
    (table_numbers dir);
  Alcotest.(check bool) "the rotten table is set aside" true
    (Sys.file_exists (Table_file.table_path ~dir rotten ^ ".quarantined"));
  Db.close db;
  check_crash_image ~dir ~allowed:(fun i ->
      if i <= crash_keys / 2 then [ Some (move_value i) ] else [ None ])

(* A suspect table holds back the compaction that would merge it — the
   merge would fail again on the same block — without holding up
   [compact_now]; once repair discards it, the compaction runs. *)
let suspect_blocks_its_compaction () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:13 () in
  let db = open_crash f dir in
  crash_rounds db 3;
  Db.close db;
  damage_table ~dir (List.hd (table_numbers dir));
  let db = open_crash ~l0_trigger:2 f dir in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      (match Db.scrub_now db with
      | [] -> Alcotest.fail "setup: the scrub missed the damage"
      | _ -> ());
      (match Db.maintenance_next db with
      | None -> ()
      | Some job ->
          (* run it, or [close] would wait for its claim forever *)
          Db.maintenance_run db job;
          Alcotest.failf "%s claimed while the verdict is pending"
            (Format.asprintf "%a" Clsm_maintenance.Job.pp job));
      Db.compact_now db;
      Alcotest.(check (list int)) "L0 untouched" [ 3 ]
        [ List.hd (Db.level_file_counts db) ];
      Alcotest.(check int) "no merge" 0 (Db.stats db).Stats.compactions;
      (match Db.repair_now db with
      | `Ok -> ()
      | `Partial r | `Degraded r -> Alcotest.failf "repair: %s" r);
      Db.compact_now db;
      Alcotest.(check int) "merged after the discard" 1
        (Db.stats db).Stats.compactions;
      Alcotest.(check (list int)) "L0 drained" [ 0 ]
        [ List.hd (Db.level_file_counts db) ];
      for i = 1 to crash_keys do
        Alcotest.(check (option string))
          (Printf.sprintf "k%03d" i)
          (Some (crash_value 3 i))
          (Db.get db (Printf.sprintf "k%03d" i))
      done)

(* A suspect holds back only the level range whose task would merge it:
   with an L0 suspect over the L0 trigger and L1 over its budget, the
   L0→L1 merge waits and the L1→L2 compaction is claimed. *)
let suspect_holds_back_only_its_range () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:19 () in
  let open_with ~l0_trigger ~l1 =
    let o = crash_opts ~l0_trigger f dir in
    Db.open_shard ~clock:(Clock.create ())
      { o with Options.lsm = { o.Options.lsm with Lsm_config.level1_max_bytes = l1 } }
  in
  let flush db lo hi value =
    for i = lo to hi do
      Db.put db ~key:(Printf.sprintf "k%04d" i) ~value
    done;
    Db.compact_now db
  in
  let old = String.make 100 'o' in
  (* ~66 KB merged into L1, then two small L0 tables over its first keys *)
  let db = open_with ~l0_trigger:2 ~l1:(1 lsl 20) in
  flush db 0 299 old;
  flush db 300 599 old;
  Db.close db;
  let db = open_with ~l0_trigger:8 ~l1:(1 lsl 20) in
  flush db 0 9 "new";
  flush db 10 19 "new";
  Db.close db;
  let l0 =
    match Manifest.load ~dir () with
    | Some (m, _) ->
        List.filter_map
          (fun (level, n) -> if level = 0 then Some n else None)
          m.Manifest.files
    | None -> Alcotest.fail "setup: no manifest"
  in
  Alcotest.(check int) "two L0 tables" 2 (List.length l0);
  damage_table ~dir (List.fold_left min max_int l0);
  let db = open_with ~l0_trigger:2 ~l1:(8 * 1024) in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      (match Db.scrub_now db with
      | [] -> Alcotest.fail "setup: the scrub missed the damage"
      | _ -> ());
      (match Db.maintenance_next db with
      | Some (Clsm_maintenance.Job.Compact { src_level = 1; target_level = 2 }
              as job) ->
          Db.maintenance_run db job
      | Some job ->
          Db.maintenance_run db job;
          Alcotest.failf "claimed %s"
            (Format.asprintf "%a" Clsm_maintenance.Job.pp job)
      | None -> Alcotest.fail "a suspect in L0 held back L1's compaction");
      Alcotest.(check int) "L0 still waits" 2
        (List.hd (Db.level_file_counts db));
      (match Db.repair_now db with
      | `Ok -> ()
      | `Partial r | `Degraded r -> Alcotest.failf "repair: %s" r);
      Alcotest.(check int) "the clean L0 table stays" 1
        (List.hd (Db.level_file_counts db));
      for i = 0 to 599 do
        let key = Printf.sprintf "k%04d" i in
        let allowed =
          if i < 10 then [ Some "new"; Some old ]
          else if i < 20 then [ Some "new" ]
          else [ Some old ]
        in
        if not (List.mem (Db.get db key) allowed) then
          Alcotest.failf "%s after the discard" key
      done)

let suites =
  [
    ( "env.unix",
      [ Alcotest.test_case "rf_read exact bytes" `Quick unix_rf_read_exact ] );
    ( "fault",
      [
        Alcotest.test_case "crash countdown" `Quick crash_countdown;
        Alcotest.test_case "crash image" `Quick crash_image_keeps_synced_prefix;
        Alcotest.test_case "fsync gate" `Quick fsync_gate_poisons_writer;
        Alcotest.test_case "enospc degrades" `Quick enospc_degrades_to_read_only;
        Alcotest.test_case "idle degraded store repairs itself" `Quick
          idle_degraded_store_repairs_itself;
        Alcotest.test_case "no orphans after crash" `Quick
          mid_flush_crash_leaves_no_orphans;
        Alcotest.test_case "no orphans after compaction crash" `Quick
          mid_compaction_crash_leaves_no_orphans;
        Alcotest.test_case "strict wal" `Quick strict_wal_fails_on_corrupt_tail;
        Alcotest.test_case "install crash ordering" `Slow install_crash_ordering;
        Alcotest.test_case "move crash ordering" `Quick move_crash_ordering;
        Alcotest.test_case "move skips a table quarantined meanwhile" `Quick
          move_skips_quarantined;
        Alcotest.test_case "suspect blocks its compaction" `Quick
          suspect_blocks_its_compaction;
        Alcotest.test_case "suspect holds back only its range" `Quick
          suspect_holds_back_only_its_range;
      ] );
  ]
