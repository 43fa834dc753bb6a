(* Self-healing unit tests: the Retry_policy backoff schedule under a
   fake clock, the verdict -> repair round trip for both transient
   and persistent corruption, a manifest with the older quarantine
   records, and the transient-fsync profile that must
   complete through retries without ever degrading the store. The
   multi-seed bit-rot campaign lives in test_torture.ml. *)

open Clsm_core
open Clsm_lsm
open Clsm_env

let fresh_dir = Test_dirs.fresh "selfheal"

let small_opts ?(env = Env.unix) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 16 * 1024;
    wal_enabled = true;
    wal_sync = `Async;
    env;
    cache_bytes = 1 lsl 20;
    maintenance_workers = 1;
    (* tests drive scrub/repair explicitly *)
    scrub_interval = 0.0;
    auto_repair = false;
    lsm =
      {
        base.Options.lsm with
        Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 8 * 1024;
        l0_compaction_trigger = 3;
        block_size = 1024;
      };
  }

(* ---------- Retry_policy under a fake clock ---------- *)

(* A policy whose clock only advances when [sleep] is called, so every
   schedule decision is a pure function of the attempt history. *)
let fake_clock_policy ?deadline ?(jitter = 0.0) ?(max_attempts = 5)
    ?(initial_delay = 0.01) ?(max_delay = 0.08) () =
  let now = ref 0.0 in
  let slept = ref [] in
  let p =
    {
      Retry_policy.max_attempts;
      initial_delay;
      max_delay;
      multiplier = 2.0;
      jitter;
      deadline;
      sleep =
        (fun d ->
          slept := d :: !slept;
          now := !now +. d);
      now = (fun () -> !now);
    }
  in
  (p, slept)

let io_error = Env.Error { op = "fsync"; path = "x"; message = "EIO" }

let retry_until_success () =
  let p, slept = fake_clock_policy () in
  let attempts = ref 0 in
  let retries = ref 0 in
  let v =
    Retry_policy.run p
      ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retries)
      (fun () ->
        incr attempts;
        if !attempts < 3 then raise io_error;
        "ok")
  in
  Alcotest.(check string) "result" "ok" v;
  Alcotest.(check int) "attempts" 3 !attempts;
  Alcotest.(check int) "on_retry fired per sleep" 2 !retries;
  (* The recorded sleeps are exactly the published schedule. *)
  Alcotest.(check (list (float 1e-9)))
    "schedule"
    [
      Retry_policy.delay_for p ~attempt:1; Retry_policy.delay_for p ~attempt:2;
    ]
    (List.rev !slept)

let exhaustion_reraises_last () =
  let p, slept = fake_clock_policy ~max_attempts:4 () in
  let attempts = ref 0 in
  (match
     Retry_policy.run p (fun () ->
         incr attempts;
         raise io_error)
   with
  | _ -> Alcotest.fail "expected Env.Error after exhaustion"
  | exception Env.Error { op; _ } -> Alcotest.(check string) "op" "fsync" op);
  Alcotest.(check int) "all attempts used" 4 !attempts;
  Alcotest.(check int) "no sleep after the last attempt" 3 (List.length !slept)

let crashed_is_never_retried () =
  let p, slept = fake_clock_policy () in
  let attempts = ref 0 in
  (match
     Retry_policy.run p (fun () ->
         incr attempts;
         raise Env.Crashed)
   with
  | _ -> Alcotest.fail "expected Env.Crashed to propagate"
  | exception Env.Crashed -> ());
  Alcotest.(check int) "single attempt" 1 !attempts;
  Alcotest.(check int) "no sleeps" 0 (List.length !slept)

let delay_grows_then_caps () =
  let p, _ = fake_clock_policy ~max_attempts:8 () in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.01
    (Retry_policy.delay_for p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.02
    (Retry_policy.delay_for p ~attempt:2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.04
    (Retry_policy.delay_for p ~attempt:3);
  (* 0.08 cap: attempts 4, 5, ... all clamp to max_delay. *)
  Alcotest.(check (float 1e-9)) "attempt 4 capped" 0.08
    (Retry_policy.delay_for p ~attempt:4);
  Alcotest.(check (float 1e-9)) "attempt 7 capped" 0.08
    (Retry_policy.delay_for p ~attempt:7)

let jitter_is_deterministic_and_bounded () =
  let p, _ = fake_clock_policy ~jitter:0.5 ~max_attempts:8 () in
  let p0, _ = fake_clock_policy ~jitter:0.0 ~max_attempts:8 () in
  let distinct = ref false in
  for attempt = 1 to 7 do
    let d = Retry_policy.delay_for p ~attempt in
    let d' = Retry_policy.delay_for p ~attempt in
    let base = Retry_policy.delay_for p0 ~attempt in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "attempt %d reproducible" attempt)
      d d';
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within +/-50%%" attempt)
      true
      (d >= (base *. 0.5) -. 1e-12 && d <= (base *. 1.5) +. 1e-12);
    if abs_float (d -. base) > 1e-9 then distinct := true
  done;
  Alcotest.(check bool) "jitter actually perturbs the schedule" true !distinct

let deadline_cuts_retries_short () =
  (* 10ms, 20ms, 40ms... under a 25ms deadline the third attempt's
     preceding sleep would already overrun, so run gives up after two
     attempts even though max_attempts allows ten. *)
  let p, slept = fake_clock_policy ~max_attempts:10 ~deadline:0.025 () in
  let attempts = ref 0 in
  (match
     Retry_policy.run p (fun () ->
         incr attempts;
         raise io_error)
   with
  | _ -> Alcotest.fail "expected Env.Error at the deadline"
  | exception Env.Error _ -> ());
  Alcotest.(check int) "deadline bounded the attempts" 2 !attempts;
  Alcotest.(check int) "one sleep" 1 (List.length !slept)

(* ---------- verdict -> repair round trip ---------- *)

let fill db =
  for i = 0 to 599 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(Printf.sprintf "v%04d" i)
  done;
  Db.compact_now db

let check_all db =
  for i = 0 to 599 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%04d" i)
      (Some (Printf.sprintf "v%04d" i))
      (Db.get db (Printf.sprintf "k%04d" i))
  done

(* The store's table files, by name, with their bytes. *)
let table_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".sst")
  |> List.sort compare
  |> List.map (fun n ->
         (n, In_channel.with_open_bin (Filename.concat dir n) In_channel.input_all))

let set_aside dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".quarantined")

let installs db = Array.fold_left ( + ) 0 (Db.stats db).Stats.installs

(* Transient rot: every table fails its scrub while the fault is armed
   and gets a pending verdict, but stays in the version; once the fault
   is gone each re-verifies clean from disk. Repair must drop the
   verdicts without an edit: no install, and the table files exactly
   as before the scrub, name for name and byte for byte. *)
let transient_rot_round_trip () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:5 () in
  let opts = small_opts ~env:(Faulty_env.env f) dir in
  let db = Db.open_store opts in
  fill db;
  let before = table_files dir and installs_before = installs db in
  Faulty_env.set_fault_rates f ~corrupt_read_1_in:1 ();
  let problems = Db.scrub_now db in
  Alcotest.(check bool) "scrub saw the rot" true (problems <> []);
  (match Db.health db with
  | `Partial _ -> ()
  | `Ok -> Alcotest.fail "pending verdicts must surface as `Partial"
  | `Degraded r -> Alcotest.failf "bit-rot must not degrade: %s" r);
  let s = Db.stats db in
  Alcotest.(check bool) "corruptions counted" true
    (s.Stats.corruptions_detected > 0);
  Alcotest.(check int) "nothing set aside by a scrub" 0
    s.Stats.quarantined_tables;
  Alcotest.(check (list string)) "no file renamed by a scrub" [] (set_aside dir);
  (* The rot was the injector's fiction: on a clean medium every table
     re-verifies and keeps its place. *)
  Faulty_env.set_fault_rates f ~corrupt_read_1_in:0 ();
  (match Db.repair_now db with
  | `Ok -> ()
  | `Partial r | `Degraded r -> Alcotest.failf "repair did not heal: %s" r);
  Alcotest.(check bool) "repair counted" true
    ((Db.stats db).Stats.auto_repairs > 0);
  Alcotest.(check int) "clean verdicts install nothing" installs_before
    (installs db);
  Alcotest.(check bool) "the same table files, byte for byte" true
    (table_files dir = before);
  Alcotest.(check (list string)) "nothing set aside" [] (set_aside dir);
  check_all db;
  Alcotest.(check (list string)) "verify clean" [] (Db.verify_integrity db);
  Db.close db

(* Persistent rot: damage on the platter. Repair must set the table
   aside (rename, drop from the manifest) and return the store to [`Ok]
   — minus the damaged table's keys, which is the documented trade. *)
let persistent_rot_round_trip () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  fill db;
  Db.close db;
  let sst =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".sst")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir sst in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 64 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad\xbe\xef") 0 4);
  Unix.close fd;
  let db = Db.open_store opts in
  let problems = Db.scrub_now db in
  Alcotest.(check bool) "scrub found the damage" true (problems <> []);
  (match Db.health db with
  | `Partial _ -> ()
  | `Ok | `Degraded _ -> Alcotest.fail "expected `Partial while the verdict is pending");
  (match Db.repair_now db with
  | `Ok -> ()
  | `Partial r | `Degraded r -> Alcotest.failf "repair did not finish: %s" r);
  (* The damaged table is out of the tree but kept on disk for forensics. *)
  Alcotest.(check bool) "set aside as .quarantined" true
    (Sys.file_exists (path ^ ".quarantined"));
  Alcotest.(check bool) "no longer a live table" false (Sys.file_exists path);
  Alcotest.(check (list string)) "store consistent" [] (Db.verify_integrity db);
  (* Scans over the full range still work; only the lost table's keys are
     gone. *)
  let n = List.length (Db.range ~limit:10_000 db) in
  Alcotest.(check bool) "surviving keys readable" true (n > 0 && n < 600);
  Db.close db;
  (* The discard is durable: a reopen neither resurrects the damaged
     table nor trips over the set-aside file. *)
  let db = Db.open_store opts in
  Alcotest.(check int) "reopen serves the same survivors" n
    (List.length (Db.range ~limit:10_000 db));
  Alcotest.(check (list string)) "clean after reopen" []
    (Db.verify_integrity db);
  Db.close db

(* A store written before verdicts were settled in place listed a
   suspect table under a [quarantine] record, out of the version. Such a
   manifest still opens: the table is set aside as evidence, the read
   view is the one that manifest described, and the next manifest
   carries no such record. *)
let old_quarantine_record_opens () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  fill db;
  Db.close db;
  let m =
    match Manifest.load ~dir () with
    | Some (m, []) -> m
    | Some _ | None -> Alcotest.fail "setup: no manifest"
  in
  let _, n = List.hd m.Manifest.files in
  let path = Table_file.table_path ~dir n in
  let lost =
    let tf = Table_file.open_number ~dir n in
    let count = Clsm_sstable.Table.fold (fun _ _ c -> c + 1) tf.Table_file.table 0 in
    Clsm_sstable.Table.close tf.Table_file.table;
    count
  in
  (* the older format: the table out of the file set, under a record *)
  ignore
    (Manifest.save ~dir
       {
         m with
         Manifest.files = List.filter (fun (_, n') -> n' <> n) m.Manifest.files;
       }
      : int);
  let mpath = Table_file.manifest_path ~dir in
  let saved = In_channel.with_open_bin mpath In_channel.input_all in
  let body =
    String.sub saved 0
      (String.rindex_from saved (String.length saved - 2) '\n' + 1)
    ^ Printf.sprintf "quarantine %d\n" n
  in
  Out_channel.with_open_bin mpath (fun oc ->
      Printf.fprintf oc "%scrc %08x\n" body (Clsm_util.Crc32c.string body));
  let db = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      Alcotest.(check bool) "set aside" true
        (Sys.file_exists (path ^ ".quarantined"));
      Alcotest.(check bool) "not a table any more" false (Sys.file_exists path);
      Alcotest.(check int) "counted" 1 (Db.stats db).Stats.quarantined_tables;
      (match Manifest.load ~dir () with
      | Some (m', []) ->
          Alcotest.(check bool) "not listed" false
            (List.mem n (List.map snd m'.Manifest.files))
      | Some _ -> Alcotest.fail "the record survived recovery's save"
      | None -> Alcotest.fail "no manifest");
      Alcotest.(check bool) "health ok" true (Db.health db = `Ok);
      Alcotest.(check (list string)) "verify clean" [] (Db.verify_integrity db);
      let kvs = Db.range ~limit:10_000 db in
      Alcotest.(check int) "the read view without the table" (600 - lost)
        (List.length kvs);
      List.iter
        (fun (k, v) ->
          Alcotest.(check string) k ("v" ^ String.sub k 1 4) v)
        kvs)

(* A block whose checksum holds but whose entries do not decode (a
   writer bug rather than media rot) is contained like rot: the get that
   meets it queues a verdict on the table and answers from the rest
   of the store instead of raising. The first entry of the table's first
   block gets a value-length varint that runs on into the key and past
   the block; the trailer is recomputed. *)
let malformed_block_is_contained () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  fill db;
  Db.close db;
  let sst =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".sst")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir sst in
  let t = Clsm_sstable.Table.open_file ~cmp:Internal_key.comparator path in
  let size = snd (List.hd (Clsm_sstable.Table.index_anchors t)) in
  let user_key =
    Internal_key.user_key_of
      (Clsm_sstable.Table.properties t).Clsm_sstable.Table_format.smallest
  in
  Clsm_sstable.Table.close t;
  let raw = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check bool) "restart entry header" true
    (Bytes.get raw 0 = '\000' && Char.code (Bytes.get raw 2) < 0x80);
  Bytes.set raw 2 (Char.chr (Char.code (Bytes.get raw 2) lor 0x80));
  let crc =
    Clsm_util.Crc32c.sub (Bytes.unsafe_to_string raw) ~pos:0 ~len:(size + 1)
  in
  Clsm_util.Binary.put_fixed32 raw ~pos:(size + 1) (Clsm_util.Crc32c.mask crc);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc raw);
  let db = Db.open_store opts in
  (match Db.get db user_key with
  | got ->
      (* Its only version lived in the damaged block. *)
      Alcotest.(check (option string)) "answered as a miss" None got
  | exception e -> Alcotest.failf "get raised %s" (Printexc.to_string e));
  Alcotest.(check bool) "corruption counted" true
    ((Db.stats db).Stats.corruptions_detected > 0);
  (match Db.health db with
  | `Partial _ -> ()
  | `Ok | `Degraded _ -> Alcotest.fail "expected `Partial with the table reported");
  Db.close db

(* ---------- transient fsync faults ride through retry ---------- *)

let transient_fsync_completes_via_retry () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:17 ~fsync_fail_1_in:4 () in
  let base = small_opts ~env:(Faulty_env.env f) dir in
  let opts =
    {
      base with
      (* The WAL's fsync gate poisons the writer on the first failure by
         design (it cannot know what reached disk), so this profile runs
         without a WAL and points squarely at the flush/compaction path.
         Sleeps are elided to keep the test fast; the schedule itself is
         covered by the fake-clock suite above. *)
      Options.wal_enabled = false;
      retry =
        {
          Retry_policy.default with
          max_attempts = 8;
          deadline = None;
          sleep = (fun _ -> ());
        };
    }
  in
  let db = Db.open_store opts in
  for i = 0 to 599 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(Printf.sprintf "v%04d" i)
  done;
  Db.compact_now db;
  (match Db.health db with
  | `Ok -> ()
  | `Partial r | `Degraded r ->
      Alcotest.failf "transient fsync faults must not stick: %s" r);
  let s = Db.stats db in
  Alcotest.(check bool)
    (Printf.sprintf "faults were injected (%d)" (Faulty_env.injected_faults f))
    true
    (Faulty_env.injected_faults f > 0);
  Alcotest.(check bool)
    (Printf.sprintf "retries absorbed them (io_retries=%d)" s.Stats.io_retries)
    true (s.Stats.io_retries > 0);
  check_all db;
  Alcotest.(check (list string)) "consistent" [] (Db.verify_integrity db);
  Db.close db

(* Scrubbing is work that falls due with time, not with any event: once
   the store goes idle, only the scheduler's clock can start the next
   pass. No call after [compact_now] but reading stats, and the count
   starts once the passes its installs woke have had time to finish. *)
let idle_store_keeps_scrubbing () =
  let dir = fresh_dir () in
  let db =
    Db.open_store { (small_opts dir) with Options.scrub_interval = 0.05 }
  in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      fill db;
      Unix.sleepf 0.1;
      let before = (Db.stats db).Stats.scrubbed_blocks in
      Unix.sleepf 0.5;
      let after = (Db.stats db).Stats.scrubbed_blocks in
      Alcotest.(check bool)
        (Printf.sprintf "scrubbed %d blocks while idle" (after - before))
        true (after > before))

let suites =
  [
    ( "selfheal.retry",
      [
        Alcotest.test_case "retries until success" `Quick retry_until_success;
        Alcotest.test_case "exhaustion re-raises" `Quick exhaustion_reraises_last;
        Alcotest.test_case "crashed not retried" `Quick crashed_is_never_retried;
        Alcotest.test_case "delay grows then caps" `Quick delay_grows_then_caps;
        Alcotest.test_case "jitter deterministic" `Quick
          jitter_is_deterministic_and_bounded;
        Alcotest.test_case "deadline cuts short" `Quick
          deadline_cuts_retries_short;
      ] );
    ( "selfheal.quarantine",
      [
        Alcotest.test_case "transient rot round trip" `Quick
          transient_rot_round_trip;
        Alcotest.test_case "malformed block contained" `Quick
          malformed_block_is_contained;
        Alcotest.test_case "persistent rot round trip" `Quick
          persistent_rot_round_trip;
        Alcotest.test_case "old quarantine record opens" `Quick
          old_quarantine_record_opens;
        Alcotest.test_case "idle store keeps scrubbing" `Quick
          idle_store_keeps_scrubbing;
      ] );
    ( "selfheal.retry-io",
      [
        Alcotest.test_case "transient fsync rides through" `Quick
          transient_fsync_completes_via_retry;
      ] );
  ]
