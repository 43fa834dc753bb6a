(* The event-driven maintenance layer: the Wakeup primitive, the job
   model, the scheduler, the graduated backpressure curve, and — against
   the real store — the regression the refactor exists for: a memtable
   rotation triggers a flush through a condvar signal, not a poll tick,
   blocked claimants wake on release, plus a multi-domain stress test of
   writers, scanners and forced churn under the worker pool. *)

open Clsm_core
open Clsm_primitives
open Clsm_maintenance

let fresh_dir = Test_dirs.fresh "maint"

(* ---------- Wakeup primitive ---------- *)

let wakeup_signal_then_wait () =
  let w = Wakeup.create () in
  let seen = Wakeup.current w in
  Wakeup.signal w;
  (* Signal already issued: wait must return immediately, not block. *)
  let g = Wakeup.wait w ~seen in
  Alcotest.(check bool) "generation advanced" true (g > seen)

let wakeup_wakes_sleeping_waiter () =
  let w = Wakeup.create () in
  let woke = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        let seen = Wakeup.current w in
        ignore (Wakeup.wait w ~seen);
        Atomic.set woke true)
  in
  (* Give the waiter time to park, then signal. *)
  let rec park_wait n =
    if n > 0 && Wakeup.waiters w = 0 then begin
      Unix.sleepf 0.005;
      park_wait (n - 1)
    end
  in
  park_wait 200;
  Alcotest.(check int) "one parked waiter" 1 (Wakeup.waiters w);
  Wakeup.signal w;
  Domain.join waiter;
  Alcotest.(check bool) "waiter woke" true (Atomic.get woke)

(* ---------- Job model ---------- *)

(* The store's claim order, read off [Db.maintenance_next] on a store
   with no scheduler: with two L0 tables over the compaction trigger and
   the memtable over its budget, the flush is claimed first and the
   L0→L1 compaction second, while the flush is still held. *)
let job_priorities () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 4 * 1024;
      scrub_interval = 0.0;
      lsm =
        { base.Options.lsm with Clsm_lsm.Lsm_config.l0_compaction_trigger = 2 };
    }
  in
  let db = Db.open_shard ~clock:(Clock.create ()) opts in
  let fill round =
    for i = 0 to 99 do
      Db.put db
        ~key:(Printf.sprintf "r%d-%03d" round i)
        ~value:(String.make 64 'v')
    done
  in
  let claim () =
    match Db.maintenance_next db with
    | Some job -> job
    | None -> Alcotest.fail "expected a claimable job"
  in
  let job = Alcotest.testable Job.pp ( = ) in
  for round = 1 to 2 do
    fill round;
    let flush = claim () in
    Alcotest.check job "over-budget memtable claims a flush" Job.Flush flush;
    Db.maintenance_run db flush
  done;
  Alcotest.(check int) "two L0 tables" 2 (List.hd (Db.level_file_counts db));
  fill 3;
  let first = claim () in
  let second = claim () in
  Alcotest.check job "flush first" Job.Flush first;
  Alcotest.check job "then the L0 merge"
    (Job.Compact { src_level = 0; target_level = 1 })
    second;
  Db.maintenance_run db first;
  Db.maintenance_run db second;
  Alcotest.(check (option string)) "data survives both jobs"
    (Some (String.make 64 'v'))
    (Db.get db "r1-042");
  Db.close db

(* ---------- compaction moves ---------- *)

(* A store with no scheduler, so only the calls below do maintenance
   ([claim_flush], [compact_now]); L0 compacts at two tables. *)
let move_store dir =
  let base = Options.default ~dir in
  Db.open_shard ~clock:(Clock.create ())
    {
      base with
      Options.memtable_bytes = 4 * 1024;
      scrub_interval = 0.0;
      lsm =
        { base.Options.lsm with Clsm_lsm.Lsm_config.l0_compaction_trigger = 2 };
    }

let claim_flush db =
  match Db.maintenance_next db with
  | Some Job.Flush -> Db.maintenance_run db Job.Flush
  | Some _ | None -> Alcotest.fail "expected a flush claim"

let tables_by_level dir =
  match Clsm_lsm.Manifest.load ~dir () with
  | None -> Alcotest.fail "no manifest"
  | Some (m, _) -> List.sort compare m.Clsm_lsm.Manifest.files

let move_value i = Printf.sprintf "v%04d-%s" i (String.make 48 'v')

(* Ascending keys flush into L0 tables that overlap nothing: the L0→L1
   compaction relinks them a level deeper by a manifest edit, and no
   reader — an iterator and a snapshot opened before the move, a get
   after it, a reopened store — can tell. *)
let sequential_keys_move () =
  let dir = fresh_dir () in
  let db = move_store dir in
  let n = 200 in
  for i = 0 to n - 1 do
    Db.put db ~key:(Printf.sprintf "seq%04d" i) ~value:(move_value i);
    if i mod 100 = 99 then claim_flush db
  done;
  let before = tables_by_level dir in
  Alcotest.(check (list int)) "two L0 tables" [ 0; 0 ] (List.map fst before);
  let snap = Db.get_snap db in
  let it = Db.iterator db in
  Db.iter_seek_first it;
  Db.compact_now db;
  let st = Db.stats db in
  Alcotest.(check bool) "at least one move" true (st.Stats.compaction_moves >= 1);
  Alcotest.(check int) "no merge ran" 0 st.Stats.compactions;
  Alcotest.(check int) "no merge bytes" 0 st.Stats.bytes_compacted;
  Alcotest.(check bool) "moved bytes counted" true (st.Stats.bytes_moved > 0);
  Alcotest.(check (list (pair int int)))
    "the same tables, one level deeper"
    (List.map (fun (_, number) -> (1, number)) before)
    (tables_by_level dir);
  let rec walk i =
    if Db.iter_valid it then begin
      Alcotest.(check string) "iterator key" (Printf.sprintf "seq%04d" i)
        (Db.iter_key it);
      Alcotest.(check string) "iterator value" (move_value i) (Db.iter_value it);
      Db.iter_next it;
      walk (i + 1)
    end
    else i
  in
  Alcotest.(check int) "the pre-move iterator reads every key" n (walk 0);
  Db.iter_close it;
  for i = 0 to n - 1 do
    let key = Printf.sprintf "seq%04d" i in
    Alcotest.(check (option string)) "snapshot read" (Some (move_value i))
      (Db.get_at db snap key);
    Alcotest.(check (option string)) "live read" (Some (move_value i))
      (Db.get db key)
  done;
  Db.release_snapshot db snap;
  Db.close db;
  let db = move_store dir in
  for i = 0 to n - 1 do
    Alcotest.(check (option string)) "read after reopen" (Some (move_value i))
      (Db.get db (Printf.sprintf "seq%04d" i))
  done;
  Alcotest.(check (list string)) "verify clean" [] (Db.verify_integrity db);
  Db.close db

(* Overwrites of one key range put the same user keys in both L0 tables:
   that compaction must merge. *)
let overwrites_still_merge () =
  let dir = fresh_dir () in
  let db = move_store dir in
  let rng = Random.State.make [| 7 |] in
  for round = 1 to 2 do
    for _ = 1 to 100 do
      let i = Random.State.int rng 100 in
      Db.put db
        ~key:(Printf.sprintf "key%03d" i)
        ~value:(Printf.sprintf "r%d-%s" round (String.make 48 'v'))
    done;
    claim_flush db
  done;
  Db.compact_now db;
  let st = Db.stats db in
  Alcotest.(check int) "the L0 merge ran" 1 st.Stats.compactions;
  Alcotest.(check int) "no move" 0 st.Stats.compaction_moves;
  Alcotest.(check bool) "merged bytes counted" true (st.Stats.bytes_compacted > 0);
  Db.close db

(* A merged-away input is deleted when the last version holding it is
   released, not at its install: an iterator opened before the merge
   keeps both inputs on disk, unlisted, and [iter_close] deletes them.
   (A directory check right after [compact_now] can therefore see such
   a table while any reader or job still pins the older version.) *)
let pinned_input_outlives_its_merge () =
  let dir = fresh_dir () in
  let db = move_store dir in
  for round = 1 to 2 do
    for i = 0 to 99 do
      Db.put db
        ~key:(Printf.sprintf "key%03d" i)
        ~value:(Printf.sprintf "r%d-%s" round (String.make 48 'v'))
    done;
    claim_flush db
  done;
  let inputs = List.map snd (tables_by_level dir) in
  Alcotest.(check int) "two L0 inputs" 2 (List.length inputs);
  let on_disk n = Sys.file_exists (Clsm_lsm.Table_file.table_path ~dir n) in
  let it = Db.iterator db in
  Db.compact_now db;
  Alcotest.(check int) "the L0 merge ran" 1 (Db.stats db).Stats.compactions;
  let listed = List.map snd (tables_by_level dir) in
  List.iter
    (fun n ->
      Alcotest.(check bool) "input unlisted" false (List.mem n listed);
      Alcotest.(check bool) "input still on disk while pinned" true (on_disk n))
    inputs;
  Db.iter_seek_first it;
  Alcotest.(check bool) "the pinned version still reads" true (Db.iter_valid it);
  Db.iter_close it;
  List.iter
    (fun n ->
      Alcotest.(check bool) "input deleted at the release" false (on_disk n))
    inputs;
  Db.close db

(* ---------- Scheduler ---------- *)

(* With no ticker, only the wake signal can run the job: the scheduler
   is event-driven, not polling. *)
let scheduler_runs_on_wake_not_tick () =
  let pending = Atomic.make 0 in
  let ran = Atomic.make 0 in
  let next () =
    let rec claim () =
      let n = Atomic.get pending in
      if n <= 0 then None
      else if Atomic.compare_and_set pending n (n - 1) then Some Job.Flush
      else claim ()
    in
    claim ()
  in
  let run _job = Atomic.incr ran in
  let s =
    Scheduler.create ~num_workers:2 ~pp:Job.pp ~next ~run ()
  in
  Scheduler.start s;
  Unix.sleepf 0.05;
  Alcotest.(check int) "idle until work exists" 0 (Atomic.get ran);
  Atomic.set pending 3;
  Scheduler.wake s;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get ran < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Scheduler.stop s;
  Alcotest.(check int) "all jobs ran without a tick" 3 (Atomic.get ran);
  Alcotest.(check int) "jobs counted" 3 (Scheduler.jobs_run s)

let scheduler_stop_joins_quickly () =
  let s =
    Scheduler.create ~num_workers:1 ~tick:3600.0 ~pp:Job.pp
      ~next:(fun () -> None)
      ~run:(fun _ -> ())
      ()
  in
  Scheduler.start s;
  Unix.sleepf 0.02;
  let t0 = Unix.gettimeofday () in
  Scheduler.stop s;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned in %.3fs despite 1h tick" elapsed)
    true (elapsed < 2.0)

(* ---------- Backpressure curve ---------- *)

let backpressure_curve () =
  let config =
    { Backpressure.soft_l0 = 8; hard_l0 = 12; max_delay_ns = 1_000_000 }
  in
  Alcotest.(check int) "no delay below soft" 0
    (Backpressure.delay_ns config ~l0_files:7);
  let d8 = Backpressure.delay_ns config ~l0_files:8 in
  let d10 = Backpressure.delay_ns config ~l0_files:10 in
  let d11 = Backpressure.delay_ns config ~l0_files:11 in
  Alcotest.(check bool) "positive at soft" true (d8 > 0);
  Alcotest.(check bool) "monotone" true (d8 < d10 && d10 < d11);
  Alcotest.(check int) "max at hard-1" config.max_delay_ns d11;
  Alcotest.(check int) "capped past hard" config.max_delay_ns
    (Backpressure.delay_ns config ~l0_files:20);
  (* Degenerate config (soft = hard) must not divide by zero. *)
  let tight = { config with Backpressure.soft_l0 = 12 } in
  Alcotest.(check int) "soft=hard still capped" tight.max_delay_ns
    (Backpressure.delay_ns tight ~l0_files:12)

(* ---------- Stats JSON ---------- *)

let stats_json_shape () =
  let s = Stats.create () in
  Stats.incr s Stats.puts;
  Stats.record_compaction s ~src_level:0;
  Stats.record_compaction s ~src_level:2;
  Stats.incr s Stats.write_slowdowns;
  Stats.add s Stats.slowdown_delay_ns 1234;
  Stats.incr s Stats.compaction_moves;
  Stats.add s Stats.bytes_moved 4096;
  Stats.record_install s ~kind:`Flush ~ns:500 ~manifest_bytes:70;
  Stats.record_install s ~kind:`Flush ~ns:700 ~manifest_bytes:90;
  Stats.record_install s ~kind:`Quarantine ~ns:40 ~manifest_bytes:80;
  let json = Stats.to_json (Stats.read s) in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec at i = i + m <= n && (String.sub json i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "puts" true (has "\"puts\":1");
  Alcotest.(check bool) "per-level array" true
    (has "\"compactions_per_level\":[1,0,1");
  Alcotest.(check bool) "slowdown ns" true (has "\"slowdown_delay_ns\":1234");
  (* a move is not a merge *)
  Alcotest.(check bool) "compactions count merges" true
    (has "\"compactions\":2");
  Alcotest.(check bool) "moves" true (has "\"compaction_moves\":1");
  Alcotest.(check bool) "moved bytes" true (has "\"bytes_moved\":4096");
  (* one install counter and latency sum per edit kind *)
  Array.iter
    (fun kind ->
      Alcotest.(check bool) ("installs " ^ kind) true
        (has (Printf.sprintf "\"installs_%s\":" kind));
      Alcotest.(check bool) ("install ns " ^ kind) true
        (has (Printf.sprintf "\"install_ns_total_%s\":" kind)))
    Stats.install_kinds;
  Alcotest.(check bool) "flush installs" true (has "\"installs_flush\":2");
  Alcotest.(check bool) "flush install ns" true
    (has "\"install_ns_total_flush\":1200");
  Alcotest.(check bool) "quarantine installs" true
    (has "\"installs_quarantine\":1");
  Alcotest.(check bool) "latest manifest size" true
    (has "\"manifest_bytes_last\":80");
  Alcotest.(check bool) "valid object" true
    (String.length json > 2
    && json.[0] = '{'
    && json.[String.length json - 1] = '}')

(* The rendering is a scraping surface: a recording that touches every
   row pins the exact JSON and pp text, so no name, order, separator or
   value can change unnoticed. *)
let stats_golden () =
  let s = Stats.create () in
  let times n f = for _ = 1 to n do f () done in
  let incr n c = times n (fun () -> Stats.incr s c) in
  incr 3 Stats.puts;
  incr 2 Stats.gets;
  incr 1 Stats.deletes;
  incr 1 Stats.rmws;
  incr 1 Stats.rmw_conflicts;
  incr 2 Stats.snapshots_taken;
  incr 1 Stats.scans;
  incr 1 Stats.memtable_rotations;
  incr 2 Stats.flushes;
  Stats.add s Stats.bytes_flushed 5000;
  List.iter (fun l -> Stats.record_compaction s ~src_level:l) [ 0; 0; 2 ];
  Stats.add s Stats.compaction_ns 777;
  Stats.add s Stats.bytes_compacted 9000;
  incr 1 Stats.compaction_moves;
  Stats.add s Stats.bytes_moved 4096;
  incr 1 Stats.write_stalls;
  Stats.add s Stats.stall_ns 333;
  incr 1 Stats.write_slowdowns;
  Stats.add s Stats.slowdown_delay_ns 1234;
  incr 4 Stats.maintenance_wakeups;
  Stats.add s Stats.scrubbed_blocks 64;
  incr 1 Stats.corruptions_detected;
  incr 1 Stats.quarantined_tables;
  incr 2 Stats.io_retries;
  incr 1 Stats.auto_repairs;
  let wal = Stats.wal_observer s in
  wal.Clsm_wal.Wal_writer.on_group_commit ~records:3;
  wal.on_group_commit ~records:1;
  List.iter (fun boarded -> wal.on_window ~boarded) [ true; false; false ];
  times 3 (fun () -> wal.on_commit_wait ~ns:50_000);
  Stats.record_get_latency s ~ns:10_000;
  Stats.record_get_latency s ~ns:2_000_000;
  Stats.record_install s ~kind:`Flush ~ns:500 ~manifest_bytes:70;
  Stats.record_install s ~kind:`Compaction ~ns:900 ~manifest_bytes:120;
  Stats.record_install s ~kind:`Commit ~ns:40 ~manifest_bytes:80;
  let st = Stats.read s in
  Alcotest.(check string) "to_json"
    "{\"puts\":3,\"gets\":2,\"deletes\":1,\"rmws\":1,\"rmw_conflicts\":1,\"snapshots\":2,\"scans\":1,\"memtable_rotations\":1,\"flushes\":2,\"compactions\":3,\"compactions_per_level\":[2,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0],\"compaction_ns\":777,\"bytes_flushed\":5000,\"bytes_compacted\":9000,\"compaction_moves\":1,\"bytes_moved\":4096,\"write_stalls\":1,\"stall_ns\":333,\"write_slowdowns\":1,\"slowdown_delay_ns\":1234,\"maintenance_wakeups\":4,\"scrubbed_blocks\":64,\"corruptions_detected\":1,\"quarantined_tables\":1,\"io_retries\":2,\"auto_repairs\":1,\"wal_group_commits\":2,\"wal_group_records\":4,\"wal_fsyncs_saved\":2,\"wal_windows_boarded\":1,\"wal_windows_expired\":2,\"commit_waits\":3,\"commit_wait_ns\":150000,\"commit_wait_p50_us\":52,\"commit_wait_p99_us\":52,\"get_ns\":2010000,\"get_p50_us\":10,\"get_p99_us\":2032,\"installs_flush\":1,\"install_ns_total_flush\":500,\"installs_compaction\":1,\"install_ns_total_compaction\":900,\"installs_quarantine\":0,\"install_ns_total_quarantine\":0,\"installs_commit\":1,\"install_ns_total_commit\":40,\"manifest_bytes_last\":80}"
    (Stats.to_json st);
  Alcotest.(check string) "pp"
    (String.concat "\n"
      [
      "puts=3 gets=2 deletes=1 rmws=1 rmw_conflicts=1";
      "snapshots=2 scans=1 memtable_rotations=1 flushes=2 compactions=3 [L0:2 L2:1]";
      "compaction_ns=777 bytes_flushed=5000 bytes_compacted=9000 compaction_moves=1 bytes_moved=4096";
      "write_stalls=1 stall_ns=333 write_slowdowns=1 slowdown_delay_ns=1234 maintenance_wakeups=4";
      "scrubbed_blocks=64 corruptions_detected=1 quarantined_tables=1 io_retries=2 auto_repairs=1";
      "wal_group_commits=2 wal_group_records=4 wal_fsyncs_saved=2 wal_windows_boarded=1 wal_windows_expired=2";
      "commit_waits=3 commit_wait_ns=150000 commit_wait_p50_us=52 commit_wait_p99_us=52 get_ns=2010000";
      "get_p50_us=10 get_p99_us=2032 installs_flush=1 install_ns_total_flush=500 installs_compaction=1";
      "install_ns_total_compaction=900 installs_quarantine=0 install_ns_total_quarantine=0 installs_commit=1 install_ns_total_commit=40";
      "manifest_bytes_last=80";
      ])
    (Format.asprintf "%a" Stats.pp st)

(* Every cell set to its own value comes back in its own snapshot field
   and JSON key: a [read] line or a row getter pointing at another cell
   fails here. *)
let stats_wiring () =
  let s = Stats.create () in
  List.iter
    (fun l -> for _ = 0 to l do Stats.record_compaction s ~src_level:l done)
    [ 0; 1; 2; 3 ];
  let value i = 1000 + i in
  List.iteri
    (fun i (_, cell, _) -> Option.iter (fun c -> Stats.set s c (value i)) cell)
    Stats.catalogue;
  let st = Stats.read s in
  let json = Stats.to_json st in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec at i = i + m <= n && (String.sub json i m = sub || at (i + 1)) in
    at 0
  in
  let cells = ref 0 in
  List.iteri
    (fun i (name, cell, get) ->
      if cell <> None then begin
        incr cells;
        Alcotest.(check int) (name ^ " field") (value i) (get st);
        Alcotest.(check bool) (name ^ " json") true
          (has (Printf.sprintf "\"%s\":%d," name (value i))
          || has (Printf.sprintf "\"%s\":%d}" name (value i)))
      end)
    Stats.catalogue;
  Alcotest.(check int) "cell rows"
    (30 + (2 * Array.length Stats.install_kinds) + 1)
    !cells;
  Alcotest.(check int) "snapshot field" (value 0) st.Stats.puts;
  Alcotest.(check int) "gauge field"
    (value (List.length Stats.catalogue - 1))
    st.Stats.manifest_bytes_last;
  Alcotest.(check (list int)) "per-level cells" [ 1; 2; 3; 4; 0 ]
    (Array.to_list (Array.sub st.Stats.compactions_per_level 0 5))

(* Latency percentiles come from the shared histogram: within one bucket
   (a factor of 2^(1/8)) of the exact order statistic, and a shard
   roll-up resolves them over the combined population — p50 of a fast
   and a slow shard is the fast shard's latency, not the slower
   shard's p50. *)
let stats_percentiles () =
  let shard ~get_ns ~wait_ns ~manifest_bytes =
    let s = Stats.create () in
    let wal = Stats.wal_observer s in
    for _ = 1 to 100 do
      Stats.record_get_latency s ~ns:get_ns;
      wal.Clsm_wal.Wal_writer.on_commit_wait ~ns:wait_ns
    done;
    Stats.record_install s ~kind:`Commit ~ns:0 ~manifest_bytes;
    Stats.read s
  in
  let near name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %dus ~ %dus" name got expected)
      true
      (float_of_int (abs (got - expected))
      <= (float_of_int expected *. (Float.pow 2.0 0.125 -. 1.0)) +. 1.0)
  in
  let fast = shard ~get_ns:10_000 ~wait_ns:50_000 ~manifest_bytes:300 in
  let slow = shard ~get_ns:1_000_000 ~wait_ns:2_000_000 ~manifest_bytes:200 in
  near "fast get p50" 10 (Stats.get_percentile_us fast ~pct:50.);
  near "fast commit-wait p99" 50 (Stats.commit_wait_percentile_us fast ~pct:99.);
  near "slow get p50" 1000 (Stats.get_percentile_us slow ~pct:50.);
  let m = Stats.merge_all [ fast; slow ] in
  Alcotest.(check int) "merged commit waits" 200 m.Stats.commit_waits;
  Alcotest.(check int) "merged commit-wait ns" (100 * 2_050_000)
    m.Stats.commit_wait_ns;
  Alcotest.(check int) "merged get ns" (100 * 1_010_000) m.Stats.get_ns;
  (* a gauge rolls up by maximum, whichever side holds it *)
  Alcotest.(check int) "merged manifest bytes" 300 m.Stats.manifest_bytes_last;
  Alcotest.(check int) "merged manifest bytes, swapped" 300
    (Stats.merge_all [ slow; fast ]).Stats.manifest_bytes_last;
  near "merged get p50" 10 (Stats.get_percentile_us m ~pct:50.);
  near "merged get p99" 1000 (Stats.get_percentile_us m ~pct:99.);
  near "merged commit-wait p50" 50 (Stats.commit_wait_percentile_us m ~pct:50.);
  near "merged commit-wait p99" 2000
    (Stats.commit_wait_percentile_us m ~pct:99.);
  let json = Stats.to_json m in
  let has sub =
    let n = String.length json and k = String.length sub in
    let rec at i = i + k <= n && (String.sub json i k = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "json get_p50_us" true
    (has (Printf.sprintf "\"get_p50_us\":%d," (Stats.get_percentile_us m ~pct:50.)));
  Alcotest.(check bool) "json commit_waits" true (has "\"commit_waits\":200,")

(* Counters are plain Atomics: domains hammering them concurrently must
   lose no increments, and a JSON snapshot taken afterwards must reflect
   the exact totals. *)
let stats_concurrent_updates () =
  let s = Stats.create () in
  let domains = 4 and per_domain = 5_000 in
  let worker d () =
    for _ = 0 to per_domain - 1 do
      Stats.incr s Stats.flushes;
      Stats.add s Stats.compaction_ns 10;
      Stats.add s Stats.stall_ns (d + 1)
    done
  in
  let doms = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join doms;
  let st = Stats.read s in
  let n = domains * per_domain in
  Alcotest.(check int) "flushes" n st.Stats.flushes;
  Alcotest.(check int) "compaction ns" (n * 10) st.Stats.compaction_ns;
  Alcotest.(check int) "stall ns"
    (per_domain * (1 + 2 + 3 + 4))
    st.Stats.stall_ns;
  let json = Stats.to_json st in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec at i = i + m <= n && (String.sub json i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "json compaction_ns" true
    (has (Printf.sprintf "\"compaction_ns\":%d" st.Stats.compaction_ns));
  Alcotest.(check bool) "json stall_ns" true
    (has (Printf.sprintf "\"stall_ns\":%d" st.Stats.stall_ns))

(* ---------- Store-level: event-driven flush regression ---------- *)

(* The seed's background loop slept between polls, so flush latency was
   bounded below by the poll interval. With the scheduler, a rotation
   signals a condvar: with scrubbing and auto-repair off the store runs
   no ticker at all, and the flush must still land in milliseconds. *)
let flush_without_poll_tick () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 4 * 1024;
      cache_bytes = 1 lsl 20;
      scrub_interval = 0.0;
      auto_repair = false;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.level1_max_bytes = 64 * 1024;
          target_file_size = 16 * 1024;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      for i = 0 to 199 do
        Db.put db
          ~key:(Printf.sprintf "key-%04d" i)
          ~value:(String.make 64 'v')
      done;
      let deadline = t0 +. 10.0 in
      while
        (Db.stats db).Stats.flushes = 0 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.002
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      let st = Db.stats db in
      Alcotest.(check bool) "rotation happened" true
        (st.Stats.memtable_rotations >= 1);
      Alcotest.(check bool) "flush happened" true (st.Stats.flushes >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "flush in %.3fs with no ticker" elapsed)
        true
        (elapsed < 5.0);
      Alcotest.(check bool) "writes signalled the scheduler" true
        (st.Stats.maintenance_wakeups >= 1);
      (* Data must remain readable across rotation + flush. *)
      Alcotest.(check (option string)) "read-back" (Some (String.make 64 'v'))
        (Db.get db "key-0199"))

(* Blocked claimants wake when the holder releases, not on a tick: the
   store runs no scheduler ([Db.open_shard]), so this domain
   takes claims itself with [maintenance_next] and holds them while
   other domains block in [compact_now], [scrub_now] and [repair_now];
   [maintenance_run] then releases each one, and every blocked call must
   finish right after. *)
let blocking_claims_wake_on_release () =
  let dir = fresh_dir () in
  let f = Clsm_env.Faulty_env.create ~seed:3 () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.env = Clsm_env.Faulty_env.env f;
      memtable_bytes = 4 * 1024;
      cache_bytes = 1 lsl 20;
      scrub_interval = 3600.0;
      auto_repair = true;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.level1_max_bytes = 64 * 1024;
          target_file_size = 16 * 1024;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_shard ~clock:(Clock.create ()) opts in
  let key i = Printf.sprintf "key-%04d" i in
  for i = 0 to 199 do
    Db.put db ~key:(key i) ~value:(String.make 64 'v')
  done;
  let hold expected =
    match Db.maintenance_next db with
    | Some job when job = expected -> job
    | Some _ | None -> Alcotest.fail "expected to claim the job"
  in
  (* Run [calls] on their own domains while [job] is held; release it and
     require each call to finish within [bound] seconds of the release. *)
  let blocked_until_release ~what job calls =
    let running =
      List.map
        (fun call ->
          let finished = Atomic.make None in
          let d =
            Domain.spawn (fun () ->
                call ();
                Atomic.set finished (Some (Unix.gettimeofday ())))
          in
          (d, finished))
        calls
    in
    Unix.sleepf 0.05;
    List.iter
      (fun (_, finished) ->
        Alcotest.(check bool)
          (what ^ ": blocked while the claim is held")
          true
          (Atomic.get finished = None))
      running;
    Db.maintenance_run db job;
    let released = Unix.gettimeofday () in
    let deadline = released +. 10.0 in
    List.iter
      (fun (d, finished) ->
        while Atomic.get finished = None && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        match Atomic.get finished with
        | None -> Alcotest.failf "%s: still blocked 10 s after the release" what
        | Some at ->
            Domain.join d;
            Alcotest.(check bool)
              (Printf.sprintf "%s: returned %.1f ms after the release" what
                 ((at -. released) *. 1e3))
              true
              (at -. released < 0.5))
      running
  in
  (* The flush claim: two concurrent compact_now calls queue behind it
     and both reach quiescence. *)
  blocked_until_release ~what:"compact_now" (hold Clsm_maintenance.Job.Flush)
    [ (fun () -> Db.compact_now db); (fun () -> Db.compact_now db) ];
  Alcotest.(check int) "memtable drained" 0 (Db.memtable_bytes db);
  (* The scrub claim; the held slice reads rot, so the waiting scrub_now
     finds suspects too. *)
  let scrub = hold Clsm_maintenance.Job.Scrub in
  Clsm_env.Faulty_env.set_fault_rates f ~corrupt_read_1_in:1 ();
  blocked_until_release ~what:"scrub_now" scrub
    [ (fun () -> ignore (Db.scrub_now db : string list)) ];
  Clsm_env.Faulty_env.set_fault_rates f ~corrupt_read_1_in:0 ();
  (match Db.health db with
  | `Partial _ -> ()
  | `Ok | `Degraded _ -> Alcotest.fail "expected suspect tables");
  (* The repair claim: the held job finds every suspect clean, the
     waiting repair_now finds nothing left to do. *)
  blocked_until_release ~what:"repair_now"
    (hold Clsm_maintenance.Job.Repair)
    [ (fun () -> ignore (Db.repair_now db)) ];
  Alcotest.(check bool) "healed" true (Db.health db = `Ok);
  for i = 0 to 199 do
    Alcotest.(check (option string)) (key i) (Some (String.make 64 'v'))
      (Db.get db (key i))
  done;
  Alcotest.(check (list string)) "verify clean" [] (Db.verify_integrity db);
  (* every install above went through the one install step *)
  let st = Db.stats db in
  let installs kind =
    let rec index i = if Stats.install_kinds.(i) = kind then i else index (i + 1) in
    st.Stats.installs.(index 0)
  in
  Alcotest.(check bool) "installs counted: flush" true (installs "flush" > 0);
  (* a clean verdict is settled without an edit *)
  Alcotest.(check int) "no discard" 0 (installs "quarantine");
  Alcotest.(check bool) "manifest size recorded" true
    (st.Stats.manifest_bytes_last > 0);
  Db.close db

(* A writer in a hard stall parks instead of spinning: the store runs
   no scheduler ([Db.open_shard]), L0 stalls at two tables, and this
   domain builds them with [maintenance_next]/[maintenance_run]. The
   stalled put must burn almost no CPU while it waits, return once the
   L0→L1 merge installs, and a second stalled put must be released by
   [Db.close]. *)
let stalled_writer_parks () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 4 * 1024;
      scrub_interval = 0.0;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.l0_compaction_trigger = 2;
          l0_slowdown_trigger = 2;
          l0_stall_limit = 2;
        };
    }
  in
  let db = Db.open_shard ~clock:(Clock.create ()) opts in
  let run_next expected =
    match Db.maintenance_next db with
    | Some job when job = expected -> Db.maintenance_run db job
    | Some _ | None -> Alcotest.fail "expected to claim the job"
  in
  let two_l0_tables round =
    for r = 1 to 2 do
      for i = 0 to 99 do
        Db.put db
          ~key:(Printf.sprintf "r%d-%d-%03d" round r i)
          ~value:(String.make 64 'v')
      done;
      run_next Job.Flush
    done;
    Alcotest.(check int) "two L0 tables" 2 (List.hd (Db.level_file_counts db))
  in
  (* The put on its own domain; [finished] holds its outcome. *)
  let stalled_put key =
    let finished = Atomic.make None in
    let d =
      Domain.spawn (fun () ->
          let outcome =
            match Db.put db ~key ~value:"late" with
            | () -> "returned"
            | exception e -> Printexc.to_string e
          in
          Atomic.set finished (Some (Unix.gettimeofday (), outcome)))
    in
    (d, finished)
  in
  let await ~what ~within (d, finished) =
    let deadline = Unix.gettimeofday () +. within in
    while Atomic.get finished = None && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.002
    done;
    match Atomic.get finished with
    | None -> Alcotest.failf "%s: still stalled %.0f s later" what within
    | Some (at, outcome) ->
        Domain.join d;
        (at, outcome)
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  two_l0_tables 1;
  let writer = stalled_put "stalled-1" in
  Unix.sleepf 0.02;
  let wall0 = Unix.gettimeofday () and cpu0 = cpu () in
  Unix.sleepf 0.3;
  let wall = Unix.gettimeofday () -. wall0 and used = cpu () -. cpu0 in
  Alcotest.(check bool) "put still stalled" true (Atomic.get (snd writer) = None);
  Alcotest.(check int) "one stall" 1 (Db.stats db).Stats.write_stalls;
  Alcotest.(check bool)
    (Printf.sprintf "stalled writer used %.0f ms CPU over %.0f ms" (used *. 1e3)
       (wall *. 1e3))
    true
    (used < wall /. 3.);
  let job_started = Unix.gettimeofday () in
  run_next (Job.Compact { src_level = 0; target_level = 1 });
  let at, outcome = await ~what:"after the install" ~within:2.0 writer in
  Alcotest.(check string) "put returned" "returned" outcome;
  Alcotest.(check bool)
    (Printf.sprintf "returned %.1f ms after the L0 merge started"
       ((at -. job_started) *. 1e3))
    true
    (at -. job_started < 2.0);
  Alcotest.(check bool) "stall time recorded" true
    ((Db.stats db).Stats.stall_ns > 0);
  Alcotest.(check (option string)) "stalled put landed" (Some "late")
    (Db.get db "stalled-1");
  two_l0_tables 2;
  let writer = stalled_put "stalled-2" in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "second put stalled" true
    (Atomic.get (snd writer) = None);
  Db.close db;
  let _, outcome = await ~what:"after close" ~within:5.0 writer in
  Alcotest.(check string) "released by close, raises Closed"
    (Printexc.to_string Store_sig.Closed) outcome;
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "the put that raised left nothing" None
    (Db.get db "stalled-2");
  Db.close db

(* ---------- Store-level: the lifecycle ---------- *)

let lifecycle_opts dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 16 * 1024;
    cache_bytes = 1 lsl 20;
    scrub_interval = 0.0;
    lsm =
      {
        base.Options.lsm with
        Clsm_lsm.Lsm_config.block_size = 1024;
        target_file_size = 16 * 1024;
        level1_max_bytes = 64 * 1024;
      };
  }

let key i = Printf.sprintf "key%05d" i

(* A store whose data sits in tables, so a get that misses the
   memtables goes on to the disk component. *)
let store_on_disk dir =
  let db = Db.open_store (lifecycle_opts dir) in
  for i = 0 to 499 do
    Db.put db ~key:(key i) ~value:(String.make 32 'v')
  done;
  Db.compact_now db;
  db

(* After [close], every operation but the introspection ones raises
   [Closed] within the watchdog's bound, an iterator opened before still
   reads to its end, and nothing written after [close] survives. *)
let closed_store_calls () =
  let dir = fresh_dir () in
  let db = store_on_disk dir in
  let snap = Db.get_snap db in
  let it = Db.iterator db in
  Db.iter_seek_first it;
  Db.close db;
  let closed = Watchdog.expect_closed in
  closed "put" (fun () -> Db.put db ~key:"late-put" ~value:"x");
  closed "delete" (fun () -> Db.delete db ~key:(key 1));
  closed "write_batch" (fun () ->
      Db.write_batch db [ Db.Batch_put ("late-batch", "x") ]);
  closed "rmw" (fun () -> Db.rmw db ~key:"late-rmw" (fun _ -> Db.Set "x"));
  closed "put_if_absent" (fun () ->
      Db.put_if_absent db ~key:"late-pia" ~value:"x");
  closed "get" (fun () -> Db.get db (key 7));
  closed "get_at" (fun () -> Db.get_at db snap (key 7));
  closed "get_snap" (fun () -> Db.get_snap db);
  closed "iterator" (fun () -> Db.iterator db);
  closed "range" (fun () -> Db.range db);
  closed "compact_now" (fun () -> Db.compact_now db);
  closed "scrub_now" (fun () -> Db.scrub_now db);
  closed "repair_now" (fun () -> Db.repair_now db);
  closed "verify_integrity" (fun () -> Db.verify_integrity db);
  closed "flush_wal" (fun () -> Db.flush_wal db);
  closed "level_file_counts" (fun () -> Db.level_file_counts db);
  let rec drain n =
    if Db.iter_valid it then begin
      Db.iter_next it;
      drain (n + 1)
    end
    else n
  in
  Alcotest.(check int) "pre-close iterator reads to its end" 500 (drain 0);
  Db.iter_close it;
  Db.release_snapshot db snap;
  Alcotest.(check int) "stats still answer" 500 (Db.stats db).Stats.puts;
  Alcotest.(check bool) "health is not Ok" true (Db.health db <> `Ok);
  Db.close db;
  let db = Db.open_store (Db.options db) in
  List.iter
    (fun k ->
      Alcotest.(check (option string)) ("no " ^ k) None (Db.get db k))
    [ "late-put"; "late-batch"; "late-rmw"; "late-pia" ];
  Alcotest.(check bool) "no delete after close" true (Db.get db (key 1) <> None);
  Db.close db

(* [close] drains the writes already past their check, as beforeMerge
   drains puts: an RMW held inside its decision keeps the shared lock,
   so [close] may not finish before it, and it lands. New operations
   are refused meanwhile. *)
let close_waits_out_a_write_in_flight () =
  let dir = fresh_dir () in
  let db = store_on_disk dir in
  let entered = Atomic.make false and release = Atomic.make false in
  Fun.protect
    ~finally:(fun () -> Atomic.set release true)
    (fun () ->
      let writer =
        Domain.spawn (fun () ->
            match
              Db.rmw db ~key:"in-flight" (fun _ ->
                  Atomic.set entered true;
                  while not (Atomic.get release) do
                    Unix.sleepf 0.001
                  done;
                  Db.Set "x")
            with
            | _ -> "returned"
            | exception e -> Printexc.to_string e)
      in
      while not (Atomic.get entered) do
        Unix.sleepf 0.001
      done;
      let closed = Atomic.make false in
      let closer =
        Domain.spawn (fun () ->
            Db.close db;
            Atomic.set closed true)
      in
      Unix.sleepf 0.1;
      Alcotest.(check bool) "close waits for the write in flight" false
        (Atomic.get closed);
      Watchdog.expect_closed "get while closing" (fun () -> Db.get db (key 3));
      Atomic.set release true;
      Alcotest.(check string) "the write in flight completes" "returned"
        (Domain.join writer);
      Domain.join closer);
  let db = Db.open_store (lifecycle_opts dir) in
  Alcotest.(check (option string)) "and survives reopen" (Some "x")
    (Db.get db "in-flight");
  Db.close db

(* Two writers and two readers against [close]: every operation
   returns or raises [Closed], every domain ends, and after reopen
   exactly the puts that returned are present. *)
let close_races_writers_and_readers () =
  List.iter
    (fun seed ->
      let dir = fresh_dir () in
      let db = store_on_disk dir in
      let outcome = Atomic.make [] in
      let record r =
        let rec go () =
          let old = Atomic.get outcome in
          if not (Atomic.compare_and_set outcome old (r :: old)) then go ()
        in
        go ()
      in
      let writer w () =
        let rec go n acked =
          let k = Printf.sprintf "w%d-%06d" w n in
          match Db.put db ~key:k ~value:"x" with
          | () -> go (n + 1) (k :: acked)
          | exception Store_sig.Closed -> (acked, Some k)
        in
        let acked, raised = go 0 [] in
        record (`Writer (acked, raised))
      in
      let reader r () =
        let rng = Random.State.make [| seed; r |] in
        let rec go n =
          match Db.get db (key (Random.State.int rng 500)) with
          | Some _ -> go (n + 1)
          | None -> record (`Fail "a preloaded key read as absent")
          | exception Store_sig.Closed -> record (`Reader n)
        in
        go 0
      in
      let guarded f () =
        try f () with e -> record (`Fail (Printexc.to_string e))
      in
      let domains =
        List.map
          (fun f -> Domain.spawn (guarded f))
          [ writer 0; writer 1; reader 0; reader 1 ]
      in
      Unix.sleepf (0.005 *. float_of_int (seed mod 4));
      (match Watchdog.run ~within:5.0 (fun () -> Db.close db) with
      | Some (Ok ()) -> ()
      | Some (Error e) -> Alcotest.failf "close raised %s" (Printexc.to_string e)
      | None -> Alcotest.fail "close did not return");
      let deadline = Unix.gettimeofday () +. 2.0 in
      while
        List.length (Atomic.get outcome) < 4 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.002
      done;
      let results = Atomic.get outcome in
      List.iter
        (function
          | `Fail e -> Alcotest.failf "seed %d: an operation raised %s" seed e
          | `Writer _ | `Reader _ -> ())
        results;
      if List.length results < 4 then
        Alcotest.failf "seed %d: %d of 4 domains still running 2 s after close"
          seed (4 - List.length results);
      List.iter Domain.join domains;
      let db = Db.open_store (lifecycle_opts dir) in
      List.iter
        (function
          | `Writer (acked, raised) ->
              List.iter
                (fun k ->
                  Alcotest.(check (option string))
                    (Printf.sprintf "seed %d: acknowledged %s" seed k)
                    (Some "x") (Db.get db k))
                acked;
              Option.iter
                (fun k ->
                  Alcotest.(check (option string))
                    (Printf.sprintf "seed %d: refused %s" seed k)
                    None (Db.get db k))
                raised
          | `Reader _ | `Fail _ -> ())
        results;
      Db.close db)
    [ 1; 2; 3; 4; 5 ]

(* ---------- Store-level: concurrency stress under the scheduler ---------- *)

let stress_writers_readers_churn () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 8 * 1024;
      cache_bytes = 1 lsl 20;
      maintenance_workers = 2;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.level1_max_bytes = 32 * 1024;
          target_file_size = 8 * 1024;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_store opts in
  let writers = 3 and per_writer = 300 in
  let value w i = Printf.sprintf "w%d-value-%06d" w i in
  let key w i = Printf.sprintf "w%d-key-%04d" w i in
  (* Seed the atomic pair scanners assert on. *)
  Db.write_batch db
    [ Db.Batch_put ("pair-a", "0"); Db.Batch_put ("pair-b", "0") ];
  let stop_readers = Atomic.make false in
  let failures : string list Atomic.t = Atomic.make [] in
  let fail msg = Atomic.set failures (msg :: Atomic.get failures) in
  let writer w () =
    for i = 0 to per_writer - 1 do
      Db.put db ~key:(key w i) ~value:(value w i);
      (* Batches keep the pair equal at every snapshot. *)
      if i mod 50 = 0 then begin
        let v = string_of_int ((w * per_writer) + i) in
        Db.write_batch db [ Db.Batch_put ("pair-a", v); Db.Batch_put ("pair-b", v) ]
      end
    done
  in
  let reader () =
    while not (Atomic.get stop_readers) do
      let s = Db.get_snap db in
      (* Atomic-batch invariant under a snapshot. *)
      let a = Db.get_at db s "pair-a" and b = Db.get_at db s "pair-b" in
      if a <> b then
        fail
          (Printf.sprintf "pair diverged under snapshot: %s vs %s"
             (Option.value a ~default:"-")
             (Option.value b ~default:"-"));
      (* Snapshot scans must be stable while compactions churn beneath. *)
      let r1 = Db.range ~snapshot:s ~start:"w0-" ~stop:"w1-" db in
      let r2 = Db.range ~snapshot:s ~start:"w0-" ~stop:"w1-" db in
      if r1 <> r2 then fail "snapshot scan not repeatable";
      List.iter
        (fun (k, v) ->
          if not (String.length v >= 3 && String.sub v 0 3 = "w0-") then
            fail (Printf.sprintf "foreign value %s under key %s" v k))
        r1;
      Db.release_snapshot db s
    done
  in
  let churn () =
    for _ = 1 to 3 do
      Db.compact_now db;
      Unix.sleepf 0.01
    done
  in
  let reader_doms = List.init 2 (fun _ -> Domain.spawn reader) in
  let writer_doms = List.init writers (fun w -> Domain.spawn (writer w)) in
  let churn_dom = Domain.spawn churn in
  List.iter Domain.join writer_doms;
  Domain.join churn_dom;
  Atomic.set stop_readers true;
  List.iter Domain.join reader_doms;
  (* Everything written must be readable: no lost updates. *)
  Db.compact_now db;
  for w = 0 to writers - 1 do
    for i = 0 to per_writer - 1 do
      match Db.get db (key w i) with
      | Some v when v = value w i -> ()
      | Some v -> fail (Printf.sprintf "%s: wrong value %s" (key w i) v)
      | None -> fail (Printf.sprintf "%s: lost" (key w i))
    done
  done;
  Alcotest.(check (list string)) "no consistency violations" []
    (Atomic.get failures);
  Alcotest.(check (list string)) "level invariants hold" []
    (Db.verify_integrity db);
  let st = Db.stats db in
  Alcotest.(check bool) "maintenance actually churned" true
    (st.Stats.flushes >= 1 && st.Stats.memtable_rotations >= 1);
  Db.close db;
  (* Reopen: recovery must see every key (WAL + manifest consistent). *)
  let db2 = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db2)
    (fun () ->
      Alcotest.(check (option string)) "survives reopen"
        (Some (value 2 (per_writer - 1)))
        (Db.get db2 (key 2 (per_writer - 1))))

let suites =
  [
    ( "maintenance.wakeup",
      [
        Alcotest.test_case "signal then wait" `Quick wakeup_signal_then_wait;
        Alcotest.test_case "wakes sleeping waiter" `Quick
          wakeup_wakes_sleeping_waiter;
      ] );
    ( "maintenance.job",
      [ Alcotest.test_case "priorities" `Quick job_priorities ] );
    ( "maintenance.scheduler",
      [
        Alcotest.test_case "event-driven, not polling" `Quick
          scheduler_runs_on_wake_not_tick;
        Alcotest.test_case "stop joins despite long tick" `Quick
          scheduler_stop_joins_quickly;
      ] );
    ( "maintenance.backpressure",
      [ Alcotest.test_case "graduated delay curve" `Quick backpressure_curve ] );
    ( "maintenance.stats",
      [
        Alcotest.test_case "to_json shape" `Quick stats_json_shape;
        Alcotest.test_case "concurrent counter updates" `Quick
          stats_concurrent_updates;
        Alcotest.test_case "percentiles and shard roll-up" `Quick
          stats_percentiles;
        Alcotest.test_case "golden to_json and pp" `Quick stats_golden;
        Alcotest.test_case "catalogue wiring" `Quick stats_wiring;
      ] );
    ( "maintenance.store",
      [
        Alcotest.test_case "sequential keys move, not merge" `Quick
          sequential_keys_move;
        Alcotest.test_case "overwrites still merge" `Quick
          overwrites_still_merge;
        Alcotest.test_case "pinned input outlives its merge" `Quick
          pinned_input_outlives_its_merge;
        Alcotest.test_case "flush without poll tick" `Quick
          flush_without_poll_tick;
        Alcotest.test_case "blocked claims wake on release" `Quick
          blocking_claims_wake_on_release;
        Alcotest.test_case "stalled writer parks until an install" `Quick
          stalled_writer_parks;
        Alcotest.test_case "closed-store calls" `Quick closed_store_calls;
        Alcotest.test_case "close waits out a write in flight" `Quick
          close_waits_out_a_write_in_flight;
        Alcotest.test_case "close races writers and readers" `Quick
          close_races_writers_and_readers;
        Alcotest.test_case "writers/readers/churn stress" `Slow
          stress_writers_readers_churn;
      ] );
  ]
