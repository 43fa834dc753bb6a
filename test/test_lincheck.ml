(* Multicore linearizability torture harness: `dune build @lincheck`.

   For each seed, a multi-domain stress schedule (small contended key
   space, mixed get/put/delete/rmw/put_if_absent, scans, concurrent
   flush+compaction through the maintenance scheduler) is recorded into a
   concurrent history and decided by the Wing–Gong checker plus the scan
   validator:

   - the real cLSM store (`Db`, skip-list memtable) under the default
     serializable snapshots and under `snapshots = Linearizable`;
   - the bare lock-free memtable (Algorithm 3 RMW with no store around);
   - the LevelDB-style baseline (`Single_writer_store`: one global
     mutex over `Db`, put-if-absent atomic under it) and the
     lock-striping baseline layered on it (`Striped_rmw`, known good);
   - the deliberately-broken store, which the checker MUST flag — the
     negative control proving the harness can fail.

   Seed count: LINCHECK_SEEDS (default 24, min 1). On an unexpected
   violation the full history and the minimized witness are dumped to
   lincheck-failure-<target>-seed<N>.txt (directory: LINCHECK_DUMP_DIR or
   cwd) so CI can upload it as an artifact. *)

open Clsm_core
open Clsm_lincheck

let num_seeds =
  match Sys.getenv_opt "LINCHECK_SEEDS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> failwith "LINCHECK_SEEDS must be a positive integer")
  | None -> 24

let seeds = List.init num_seeds (fun i -> 9000 + (i * 13))

(* Removed, with whatever a seed left in it, when the run exits. *)
let base_dir = Test_dirs.dir "lincheck"

(* Tiny components so the schedule crosses memtable rotations, flushes and
   level compactions while the workers run. *)
let opts ?(linearizable = false) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 2 * 1024;
    cache_bytes = 1 lsl 18;
    wal_sync = `Async;
    wal_enabled = true;
    snapshots = (if linearizable then Clock.Linearizable else Clock.Serializable);
    maintenance_workers = 2;
    lsm =
      {
        base.Options.lsm with
        Clsm_lsm.Lsm_config.level1_max_bytes = 16 * 1024;
        target_file_size = 2 * 1024;
        l0_compaction_trigger = 3;
        block_size = 256;
      };
  }

(* Rotate key-popularity shapes across seeds (reusing the benchmark
   harness's generators): uniform churns the whole space, Zipf and the
   §5.2 heavy tail pile onto a couple of keys, skewed blocks sit in
   between. *)
let cfg seed =
  let dist =
    match seed mod 4 with
    | 0 -> `Uniform
    | 1 -> `Zipf
    | 2 -> `Skewed_blocks
    | _ -> `Heavy_tail
  in
  { Stress.default with Stress.seed; domains = 4; dist }

let dump_dir =
  match Sys.getenv_opt "LINCHECK_DUMP_DIR" with
  | Some d when d <> "" -> d
  | _ -> Sys.getcwd ()

let dump_failure ~target ~seed (h : History.t) (r : Checker.result)
    scan_violations =
  let path =
    Filename.concat dump_dir
      (Printf.sprintf "lincheck-failure-%s-seed%d.txt" target seed)
  in
  let oc = open_out path in
  Printf.fprintf oc "target=%s seed=%d domains=%d\n\n%s\n\n" target seed
    (cfg seed).Stress.domains (Checker.pp_result r);
  List.iter
    (fun v -> Printf.fprintf oc "%s\n" (Scan_checker.pp_violation v))
    scan_violations;
  Printf.fprintf oc "\n--- full history (%d events, %d scans) ---\n"
    (List.length h.History.events)
    (List.length h.History.scans);
  List.iter
    (fun e -> Printf.fprintf oc "%s\n" (History.pp_event e))
    h.History.events;
  List.iter
    (fun (s : History.scan) ->
      Printf.fprintf oc "[d%d] scan inv=%d res=%d ts=%s {%s}\n"
        s.History.scan_domain s.History.scan_inv s.History.scan_res
        (match s.History.snap_ts with
        | None -> "-"
        | Some t -> string_of_int t)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
              s.History.result)))
    h.History.scans;
  close_out oc;
  path

let assert_clean ~target ~seed ~scan_mode h =
  let r = Checker.check h in
  let sv = Scan_checker.check ~mode:scan_mode h in
  if (not (Checker.ok r)) || sv <> [] then begin
    let path = dump_failure ~target ~seed h r sv in
    Alcotest.failf "%s seed %d: %s%s\n(history dumped to %s)" target seed
      (Checker.pp_result r)
      (String.concat "\n" (List.map Scan_checker.pp_violation sv))
      path
  end

(* ---------- targets ---------- *)

module Db_target = Target.Of_store (Db)
module Sharded_target = Target.Of_store (Sharded_db)

let run_clsm ~linearizable seed () =
  let dir =
    Filename.concat base_dir
      (Printf.sprintf "clsm%s_seed%d"
         (if linearizable then "_lin" else "")
         seed)
  in
  Test_dirs.rm_rf dir;
  let db = Db.open_store (opts ~linearizable dir) in
  let h =
    Fun.protect
      ~finally:(fun () ->
        Db.close db;
        Test_dirs.rm_rf dir)
      (fun () -> Stress.run (cfg seed) (Db_target.ops ~name:"clsm" db))
  in
  assert_clean
    ~target:(if linearizable then "clsm-lin" else "clsm")
    ~seed
    ~scan_mode:(if linearizable then `Linearizable else `Serializable)
    h

(* The same store with the WAL in leader-batched group-commit mode: every
   put/delete/rmw parks on the group condvar until a leader publishes its
   LSN as durable, so the commit path the checker observes includes the
   leader election, the batched fsync and the rider wakeup. A tiny
   max_batch with a nonzero accumulation window maximizes leader/rider
   interleavings. Linearizability must be indistinguishable from the
   async-WAL store. *)
let run_clsm_group seed () =
  let dir =
    Filename.concat base_dir (Printf.sprintf "clsm_group_seed%d" seed)
  in
  Test_dirs.rm_rf dir;
  let o =
    {
      (opts dir) with
      Options.wal_sync = `Group { Options.max_batch = 4; max_delay_us = 50 };
    }
  in
  let db = Db.open_store o in
  let h =
    Fun.protect
      ~finally:(fun () ->
        Db.close db;
        Test_dirs.rm_rf dir)
      (fun () ->
        Stress.run
          { (cfg seed) with Stress.ops_per_domain = 120 }
          (Db_target.ops ~name:"clsm-group" db))
  in
  assert_clean ~target:"store-group" ~seed ~scan_mode:`Serializable h

(* The shard router over 4 Db instances sharing one clock: boundaries
   split the stress key space k00..k07 so every domain's schedule
   crosses shards constantly, and every scan is a cross-shard merge
   under one fenced snapshot timestamp. The same Wing–Gong check plus
   the dual-mode scan validator apply unchanged — the router must be
   indistinguishable from one store. *)
let run_sharded ~linearizable seed () =
  let dir =
    Filename.concat base_dir
      (Printf.sprintf "sharded%s_seed%d"
         (if linearizable then "_lin" else "")
         seed)
  in
  Test_dirs.rm_rf dir;
  let o =
    {
      (opts ~linearizable dir) with
      Options.shards = 4;
      shard_boundaries = Some [ "k02"; "k04"; "k06" ];
    }
  in
  let db = Sharded_db.open_store o in
  let h =
    Fun.protect
      ~finally:(fun () ->
        Sharded_db.close db;
        Test_dirs.rm_rf dir)
      (fun () -> Stress.run (cfg seed) (Sharded_target.ops ~name:"sharded" db))
  in
  assert_clean
    ~target:(if linearizable then "sharded-lin" else "sharded")
    ~seed
    ~scan_mode:(if linearizable then `Linearizable else `Serializable)
    h

let run_striped seed () =
  let dir = Filename.concat base_dir (Printf.sprintf "striped_seed%d" seed) in
  Test_dirs.rm_rf dir;
  let base = Clsm_baselines.Single_writer_store.open_store (opts dir) in
  let st = Clsm_baselines.Striped_rmw.create base in
  let h =
    Fun.protect
      ~finally:(fun () ->
        Clsm_baselines.Single_writer_store.close base;
        Test_dirs.rm_rf dir)
      (fun () -> Stress.run (cfg seed) (Target.of_striped st))
  in
  assert_clean ~target:"striped" ~seed ~scan_mode:`Serializable h

(* The LevelDB-style baseline on its own: put-if-absent holds the global
   mutex across its read and its write, so no put, delete or other
   put-if-absent may interleave between them. The baseline has no RMW;
   its share goes to deletes and put-if-absent, which is what makes a
   non-atomic put-if-absent show (two winners on one absent key, or a
   put lost beneath one). *)
let run_single_writer seed () =
  let dir =
    Filename.concat base_dir (Printf.sprintf "single_writer_seed%d" seed)
  in
  Test_dirs.rm_rf dir;
  let st = Clsm_baselines.Single_writer_store.open_store (opts dir) in
  let h =
    Fun.protect
      ~finally:(fun () ->
        Clsm_baselines.Single_writer_store.close st;
        Test_dirs.rm_rf dir)
      (fun () ->
        Stress.run
          {
            (cfg seed) with
            Stress.read_pct = 20;
            put_pct = 15;
            delete_pct = 25;
            rmw_pct = 0;
          }
          (Target.of_single_writer st))
  in
  assert_clean ~target:"single-writer" ~seed ~scan_mode:`Serializable h

let run_memtable seed () =
  let h =
    Stress.run
      { (cfg seed) with Stress.ops_per_domain = 500; scan_every = 0 }
      (Target.of_memtable ())
  in
  assert_clean ~target:"memtable" ~seed ~scan_mode:`Serializable h

(* ---------- negative control ---------- *)

let broken_flagged () =
  (* The stale-read and lost-update bugs are timing-dependent; retry a few
     seeds before declaring the checker blind. In practice the first seed
     is flagged. *)
  let cfg seed =
    {
      (cfg seed) with
      Stress.ops_per_domain = 120;
      read_pct = 40;
      put_pct = 25;
      delete_pct = 5;
      rmw_pct = 25;
      scan_every = 0;
      compact_every = 0;
    }
  in
  let rec attempt tries seed =
    let bs = Clsm_baselines.Broken_store.create () in
    let h = Stress.run (cfg seed) (Target.of_broken bs) in
    let r = Checker.check h in
    if not (Checker.ok r) then begin
      (* show what a failing run looks like: the minimized witness *)
      print_newline ();
      print_endline (Checker.pp_result r);
      List.iter
        (fun v ->
          Alcotest.(check bool) "witness nonempty" true
            (v.Checker.witness <> []))
        r.Checker.violations
    end
    else if tries > 0 then attempt (tries - 1) (seed + 1)
    else
      Alcotest.fail
        "the deliberately-broken store passed the checker — the harness \
         cannot fail"
  in
  attempt 4 31337

let cases name f seeds =
  ( name,
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed %d" seed) `Slow (f seed))
      seeds )

let take n l = List.filteri (fun i _ -> i < n) l

let () =
  let half = max 1 (num_seeds / 2) in
  let small = max 2 (num_seeds / 6) in
  Alcotest.run "clsm-lincheck"
    [
      cases "clsm" (run_clsm ~linearizable:false) (take half seeds);
      cases "clsm-linearizable-snapshots"
        (run_clsm ~linearizable:true)
        (take (num_seeds - half) (List.rev seeds));
      cases "store-group" run_clsm_group (take small seeds);
      cases "sharded" (run_sharded ~linearizable:false) (take small seeds);
      cases "sharded-linearizable-snapshots"
        (run_sharded ~linearizable:true)
        (take small (List.rev seeds));
      cases "memtable" run_memtable (take small seeds);
      cases "striped-rmw" run_striped (take small seeds);
      cases "single-writer" run_single_writer (take small seeds);
      ( "self-test",
        [ Alcotest.test_case "broken store is flagged" `Slow broken_flagged ]
      );
    ]
