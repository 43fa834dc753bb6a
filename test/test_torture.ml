(* Crash-recovery torture harness.

   For each seed: run a mixed workload against a store whose IO goes
   through a fault-injecting environment armed with a crash point at a
   seed-chosen mutating operation; crash; reconstruct the on-disk image a
   real machine crash would have left (synced prefixes + a torn slice of
   any unsynced tail); reopen with a clean environment and check

   - every synchronously acknowledged write is present with its last
     acknowledged value (sync WAL mode: append+fsync before ack);
   - a key whose later, unacknowledged write may have partially reached
     disk holds either the acked value or one of those pending values;
   - the directory is consistent: no temp files, every table file is
     referenced by the manifest, integrity checks pass;
   - the store still orders writes correctly (fresh puts win).

   Each seed is deterministic end to end: the workload, the crash point
   and the torn-tail slices all derive from it. *)

open Clsm_core
open Clsm_lsm
open Clsm_env

(* Removed, with whatever a seed left in it, when the run exits. *)
let base_dir = Test_dirs.dir "torture"

(* Where a failing seed's store directory is copied before [base_dir] is
   removed: TORTURE_DUMP_DIR, if set. *)
let dump_dir =
  match Sys.getenv_opt "TORTURE_DUMP_DIR" with
  | Some d when d <> "" -> Some d
  | _ -> None

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    (try Unix.mkdir dst 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin src In_channel.input_all))

(* One seed of a campaign: [run ~dir seed] keeps its store in [dir],
   [<campaign><seed>] under [base_dir]. A failure leaves the store as the
   seed left it; with a dump directory it is copied there, and the
   failure is raised as it was. *)
let seed_case campaign run seed =
  let name = Printf.sprintf "%s%d" campaign seed in
  let dir = Filename.concat base_dir name in
  Alcotest.test_case (Printf.sprintf "seed %d" seed) `Slow (fun () ->
      try run ~dir seed
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        (match dump_dir with
        | Some d when Sys.file_exists dir ->
            (try Unix.mkdir d 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            copy_tree dir (Filename.concat d name)
        | Some _ | None -> ());
        Printexc.raise_with_backtrace e bt)

let opts_for ~env dir =
  let base = Options.default ~dir in
  {
    base with
    Options.env;
    wal_sync = `Per_write;
    wal_enabled = true;
    memtable_bytes = 4 * 1024;
    cache_bytes = 1 lsl 18;
    maintenance_workers = 1;
    lsm =
      {
        base.Options.lsm with
        Lsm_config.level1_max_bytes = 16 * 1024;
        target_file_size = 2 * 1024;
        l0_compaction_trigger = 3;
        block_size = 256;
      };
  }

let key_of i = Printf.sprintf "key%02d" i
let num_keys = 80

(* The workload model: [acked] is the last synchronously acknowledged
   state per key ([Some v] value, [None] tombstone, absent = never
   touched); [pending] collects per-key states attempted after the last
   ack — any of them may have reached the log before the crash. *)
type model = {
  acked : (string, string option) Hashtbl.t;
  pending : (string, string option list) Hashtbl.t;
}

let ack m key state =
  Hashtbl.replace m.acked key state;
  Hashtbl.remove m.pending key

let attempt m key state =
  let prev = Option.value ~default:[] (Hashtbl.find_opt m.pending key) in
  Hashtbl.replace m.pending key (state :: prev)

(* Directory consistency at rest, for one store directory after its
   store is closed: no staged temp file, and every table file on disk
   listed by the manifest. A compacted-away input is deleted only when
   the last version holding it is released, and until [close] a job (a
   scrub slice, say) may still hold one; after [close] none does, so an
   unlisted table then is a leak. *)
let check_dir_consistent ~seed ~label dir =
  let listing = Sys.readdir dir |> Array.to_list in
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        Alcotest.failf "seed %d: %s: stray temp file after recovery: %s" seed
          label name)
    listing;
  match Manifest.load ~dir () with
  | None -> Alcotest.failf "seed %d: %s: no manifest after recovery" seed label
  | Some (man, _) ->
      let live = List.map snd man.Manifest.files in
      List.iter
        (fun name ->
          match String.split_on_char '.' name with
          | [ num; "sst" ] ->
              if not (List.mem (int_of_string num) live) then
                Alcotest.failf "seed %d: %s: orphan table after recovery: %s"
                  seed label name
          | _ -> ())
        listing

(* Restart on the crash image with a healthy environment and check the
   directory, the durability model and the clock; removes [dir]. *)
let check_recovery ~seed ~dir ~opts m =
  let clean_opts = { opts with Options.env = Env.unix } in
  let db = Db.open_store clean_opts in
  Db.compact_now db;
  (match Db.verify_integrity db with
  | [] -> ()
  | problems ->
      Alcotest.failf "seed %d: integrity violations: %s" seed
        (String.concat "; " problems));
  (* Durability: acked state must be exact; keys with pending writes may
     hold the acked value or any pending one (an unacked record can
     legally have reached the synced or torn region of the log). *)
  Hashtbl.iter
    (fun key expect ->
      let got = Db.get db key in
      let allowed =
        expect :: Option.value ~default:[] (Hashtbl.find_opt m.pending key)
      in
      if not (List.mem got allowed) then
        Alcotest.failf "seed %d: key %s: got %s, allowed {%s}" seed key
          (Option.value ~default:"<none>" got)
          (String.concat ", "
             (List.map (Option.value ~default:"<none>") allowed)))
    m.acked;
  (* Keys never acked can only be absent or hold a pending value. *)
  Hashtbl.iter
    (fun key states ->
      if not (Hashtbl.mem m.acked key) then
        let got = Db.get db key in
        if not (List.mem got (None :: states)) then
          Alcotest.failf "seed %d: unacked key %s holds foreign value %s" seed
            key
            (Option.value ~default:"<none>" got))
    m.pending;
  (* Timestamp sanity: fresh writes must win over everything recovered. *)
  Db.put db ~key:(key_of 0) ~value:"fresh";
  Db.put db ~key:(key_of 1) ~value:"fresh";
  if Db.get db (key_of 0) <> Some "fresh" || Db.get db (key_of 1) <> Some "fresh"
  then Alcotest.failf "seed %d: recovered timestamps shadow new writes" seed;
  Db.close db;
  (* Before the second open, whose recovery would collect a leak. *)
  check_dir_consistent ~seed ~label:"store" dir;
  (* A second clean restart must also work (recovery is idempotent). *)
  let db = Db.open_store clean_opts in
  if Db.get db (key_of 0) <> Some "fresh" then
    Alcotest.failf "seed %d: second reopen lost data" seed;
  Db.close db;
  Test_dirs.rm_rf dir

let run_one_seed ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed |] in
  let fault = Faulty_env.create ~seed () in
  let opts = opts_for ~env:(Faulty_env.env fault) dir in
  let db = Db.open_store opts in
  let m = { acked = Hashtbl.create 64; pending = Hashtbl.create 16 } in
  Faulty_env.arm fault ~crash_after:(20 + Random.State.int rng 600);
  let crashed = ref false in
  let ops = ref 0 in
  while (not !crashed) && !ops < 400 do
    incr ops;
    let key = key_of (Random.State.int rng num_keys) in
    match Random.State.int rng 10 with
    | 0 | 1 -> (
        (* delete *)
        attempt m key None;
        match Db.delete db ~key with
        | () -> ack m key None
        | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
            crashed := true)
    | 2 -> (
        (* small atomic batch *)
        let key2 = key_of (Random.State.int rng num_keys) in
        let v1 = Printf.sprintf "b%d-%d" seed !ops
        and v2 = Printf.sprintf "b%d-%d'" seed !ops in
        attempt m key (Some v1);
        attempt m key2 (Some v2);
        match
          Db.write_batch db
            [ Db.Batch_put (key, v1); Db.Batch_put (key2, v2) ]
        with
        | () ->
            (* Both or neither: the batch is one WAL record. The model
               cannot express cross-key atomicity, so track each key
               individually — presence checks still apply. *)
            ack m key (Some v1);
            ack m key2 (Some v2)
        | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
            crashed := true)
    | 3 ->
        (* read back a key the model knows; pending writes make the
           expected value ambiguous, so only check fully-acked keys *)
        if not (Hashtbl.mem m.pending key) then begin
          let expect =
            Option.value ~default:None (Hashtbl.find_opt m.acked key)
          in
          match Db.get db key with
          | got ->
              if got <> expect then
                Alcotest.failf "seed %d: live read of %s: got %s, want %s"
                  seed key
                  (Option.value ~default:"<none>" got)
                  (Option.value ~default:"<none>" expect)
          | exception (Env.Crashed | Env.Error _) -> crashed := true
        end
    | _ -> (
        (* put *)
        let v = Printf.sprintf "v%d-%d" seed !ops in
        attempt m key (Some v);
        match Db.put db ~key ~value:v with
        | () -> ack m key (Some v)
        | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
            crashed := true)
  done;
  Db.simulate_crash db;
  Faulty_env.install_crash_image fault;
  check_recovery ~seed ~dir ~opts m

(* ---------- sequential keys: compaction moves under crashes ---------- *)

(* Tables moved by the sequential campaign, over all its seeds. *)
let sequential_moves = ref 0

(* Ascending fresh keys flush into L0 tables that overlap nothing, so the
   store's compactions are moves (manifest edits that relink tables a
   level deeper): the crash point lands in and around them, and the
   recovery checks of [run_one_seed] apply unchanged. *)
let run_sequential_seed ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed; 11 |] in
  let fault = Faulty_env.create ~seed () in
  let opts = opts_for ~env:(Faulty_env.env fault) dir in
  let db = Db.open_store opts in
  let m = { acked = Hashtbl.create 64; pending = Hashtbl.create 16 } in
  (* about two mutating ops a put (append, fsync): the crash lands
     anywhere in the first ~700 puts, several moves deep *)
  Faulty_env.arm fault ~crash_after:(20 + Random.State.int rng 1500);
  let crashed = ref false in
  let i = ref 0 in
  while (not !crashed) && !i < 1000 do
    let key = Printf.sprintf "seq%06d" !i and v = Printf.sprintf "v%d-%d" seed !i in
    incr i;
    attempt m key (Some v);
    match Db.put db ~key ~value:v with
    | () -> ack m key (Some v)
    | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
        crashed := true
  done;
  sequential_moves := !sequential_moves + (Db.stats db).Stats.compaction_moves;
  Db.simulate_crash db;
  Faulty_env.install_crash_image fault;
  check_recovery ~seed ~dir ~opts m

(* ---------- the sharded store under the same torture ---------- *)

let shard_bounds = [ "key27"; "key54" ]

let sharded_opts_for ~env dir =
  {
    (opts_for ~env dir) with
    Options.shards = 3;
    shard_boundaries = Some shard_bounds;
    (* two pool workers so one shard's flush runs WHILE another shard
       compacts — the crash point can land in the middle of that *)
    maintenance_workers = 2;
  }

(* The single-store torture, re-run against the 3-shard router: the
   crash point lands in whichever shard happens to be doing IO (its
   flush, another's compaction, a WAL append of a third), and recovery
   must restore every shard — per-shard directory consistency, the
   SHARDING layout, the durability model across all ranges, and a shared
   clock that still outranks everything recovered. *)
let run_one_sharded_seed ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed; 7 |] in
  let fault = Faulty_env.create ~seed () in
  let opts = sharded_opts_for ~env:(Faulty_env.env fault) dir in
  let db = Sharded_db.open_store opts in
  let m = { acked = Hashtbl.create 64; pending = Hashtbl.create 16 } in
  (* A deeper budget than the single-store harness: the router's
     mutating-IO rate is ~3x (three WALs, three flush pipelines), and
     the interesting crashes are the ones that catch two shards
     mid-maintenance. *)
  Faulty_env.arm fault ~crash_after:(60 + Random.State.int rng 900);
  let crashed = ref false in
  let ops = ref 0 in
  while (not !crashed) && !ops < 600 do
    incr ops;
    let key = key_of (Random.State.int rng num_keys) in
    match Random.State.int rng 10 with
    | 0 | 1 -> (
        attempt m key None;
        match Sharded_db.delete db ~key with
        | () -> ack m key None
        | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
            crashed := true)
    | 2 -> (
        (* a batch that deliberately crosses shard boundaries *)
        let key2 = key_of (Random.State.int rng num_keys) in
        let v1 = Printf.sprintf "b%d-%d" seed !ops
        and v2 = Printf.sprintf "b%d-%d'" seed !ops in
        attempt m key (Some v1);
        attempt m key2 (Some v2);
        match
          Sharded_db.write_batch db
            [ Sharded_db.Batch_put (key, v1); Sharded_db.Batch_put (key2, v2) ]
        with
        | () ->
            ack m key (Some v1);
            ack m key2 (Some v2)
        | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
            crashed := true)
    | 3 ->
        if not (Hashtbl.mem m.pending key) then begin
          let expect =
            Option.value ~default:None (Hashtbl.find_opt m.acked key)
          in
          match Sharded_db.get db key with
          | got ->
              if got <> expect then
                Alcotest.failf "seed %d: live read of %s: got %s, want %s" seed
                  key
                  (Option.value ~default:"<none>" got)
                  (Option.value ~default:"<none>" expect)
          | exception (Env.Crashed | Env.Error _) -> crashed := true
        end
    | _ -> (
        let v = Printf.sprintf "v%d-%d" seed !ops in
        attempt m key (Some v);
        match Sharded_db.put db ~key ~value:v with
        | () -> ack m key (Some v)
        | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
            crashed := true)
  done;
  Sharded_db.simulate_crash db;
  Faulty_env.install_crash_image fault;
  (* ---- restart on the crash image with a healthy environment ---- *)
  let clean_opts = { opts with Options.env = Env.unix } in
  let db = Sharded_db.open_store clean_opts in
  (* The persisted layout survived the crash. *)
  if Sharded_db.shard_count db <> 3 then
    Alcotest.failf "seed %d: SHARDING layout lost (count=%d)" seed
      (Sharded_db.shard_count db);
  if Sharded_db.shard_boundaries db <> shard_bounds then
    Alcotest.failf "seed %d: SHARDING boundaries changed" seed;
  (* With a clean environment every shard must come back writable. *)
  (match Sharded_db.health db with
  | `Ok -> ()
  | `Partial reason ->
      Alcotest.failf "seed %d: partial after clean recovery: %s" seed reason
  | `Degraded reason ->
      Alcotest.failf "seed %d: degraded after clean recovery: %s" seed reason);
  Sharded_db.compact_now db;
  (match Sharded_db.verify_integrity db with
  | [] -> ()
  | problems ->
      Alcotest.failf "seed %d: integrity violations: %s" seed
        (String.concat "; " problems));
  Hashtbl.iter
    (fun key expect ->
      let got = Sharded_db.get db key in
      let allowed =
        expect :: Option.value ~default:[] (Hashtbl.find_opt m.pending key)
      in
      if not (List.mem got allowed) then
        Alcotest.failf "seed %d: key %s: got %s, allowed {%s}" seed key
          (Option.value ~default:"<none>" got)
          (String.concat ", "
             (List.map (Option.value ~default:"<none>") allowed)))
    m.acked;
  Hashtbl.iter
    (fun key states ->
      if not (Hashtbl.mem m.acked key) then
        let got = Sharded_db.get db key in
        if not (List.mem got (None :: states)) then
          Alcotest.failf "seed %d: unacked key %s holds foreign value %s" seed
            key
            (Option.value ~default:"<none>" got))
    m.pending;
  (* Fresh writes win in EVERY shard: the shared clock recovered the max
     timestamp across all of them. *)
  List.iter
    (fun i ->
      let key = key_of i in
      Sharded_db.put db ~key ~value:"fresh";
      if Sharded_db.get db key <> Some "fresh" then
        Alcotest.failf
          "seed %d: recovered timestamps shadow new writes in shard of %s" seed
          key)
    [ 0; 30; 60 ];
  Sharded_db.close db;
  for i = 0 to 2 do
    check_dir_consistent ~seed
      ~label:(Printf.sprintf "shard-%d" i)
      (Filename.concat dir (Printf.sprintf "shard-%d" i))
  done;
  let db = Sharded_db.open_store clean_opts in
  if Sharded_db.get db (key_of 0) <> Some "fresh" then
    Alcotest.failf "seed %d: second reopen lost data" seed;
  Sharded_db.close db;
  Test_dirs.rm_rf dir

(* Failure isolation: persistent fsync failures degrade the shard whose
   maintenance hits them — and ONLY that shard. The others must keep
   accepting writes, and the combined health report must name the hit
   shards individually. *)
let run_degrade_isolation ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed; 13 |] in
  let fault = Faulty_env.create ~seed () in
  (* This test is about what ISOLATION looks like once a shard is down,
     so the self-healing that would mask it is switched off: no retry
     (first fsync failure degrades, as before the retry layer) and no
     auto-repair (the shard stays down for the assertions below). *)
  let opts =
    {
      (sharded_opts_for ~env:(Faulty_env.env fault) dir) with
      Options.retry = Clsm_env.Retry_policy.none;
      auto_repair = false;
    }
  in
  let db = Sharded_db.open_store opts in
  (* Arm only after the open: a fault during layout/recovery IO is the
     crash campaign's business; here the store must be healthy first. *)
  Faulty_env.set_fault_rates fault ~fsync_fail_1_in:25 ();
  (* Hammer all three ranges until some shard degrades (or give up —
     fault schedules are seed-dependent, and a seed that never trips a
     maintenance fsync is a vacuous pass, not a failure). *)
  let ops = ref 0 in
  (try
     while Sharded_db.health db = `Ok && !ops < 3000 do
       incr ops;
       let key = key_of (Random.State.int rng num_keys) in
       let v = Printf.sprintf "v%d" !ops in
       try Sharded_db.put db ~key ~value:v
       with Store_sig.Degraded _ | Env.Error _ -> ()
     done
   with Env.Crashed -> ());
  (match Sharded_db.health db with
  | `Ok -> ()
  | `Partial reason ->
      (* no corruption is injected here; a verdict would be a bug *)
      Alcotest.failf "seed %d: unexpected partial health: %s" seed reason
  | `Degraded reason ->
      let healths = Sharded_db.shard_healths db in
      let degraded_shards =
        List.filter
          (fun i -> healths.(i) <> `Ok)
          [ 0; 1; 2 ]
      in
      (* The combined report names each hit shard. *)
      List.iter
        (fun i ->
          let tag = Printf.sprintf "shard %d:" i in
          let present =
            let tl = String.length tag and rl = String.length reason in
            let rec scan o =
              o + tl <= rl && (String.sub reason o tl = tag || scan (o + 1))
            in
            scan 0
          in
          if not present then
            Alcotest.failf "seed %d: health report %S omits %S" seed reason tag)
        degraded_shards;
      (* Some shard survived (the fault rate cannot plausibly kill all
         three here) and it must still accept writes and serve reads. *)
      (match
         List.find_opt (fun i -> healths.(i) = `Ok) [ 0; 1; 2 ]
       with
      | None -> ()
      | Some survivor ->
          let key = key_of ((survivor * 30) + 5) in
          (try Sharded_db.put db ~key ~value:"alive"
           with e ->
             Alcotest.failf "seed %d: healthy shard %d refused a write: %s"
               seed survivor (Printexc.to_string e));
          if Sharded_db.get db key <> Some "alive" then
            Alcotest.failf "seed %d: healthy shard %d lost a write" seed
              survivor));
  (try Sharded_db.close db
   with Env.Error _ | Store_sig.Degraded _ -> () (* degraded WAL close *));
  Test_dirs.rm_rf dir

(* ---------- bit-rot torture ---------- *)

(* Seeded silent-corruption campaign. The environment flips one random
   bit on seeded sstable reads; the invariant is NO WRONG ANSWERS: a
   read may return the key's newest committed value, an older committed
   value (the newest copy's block read as rotten — health says
   [`Partial]), or nothing, but never bytes that were not written. The
   injected rot is transient (the platter stays clean), so once it
   stops, a repair round must find every suspect table clean, discard
   none, and restore BOTH the full data and [`Ok] health — online,
   without reopening the store. *)
let run_bitrot_seed ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed; 29 |] in
  let fault = Faulty_env.create ~seed () in
  let opts =
    {
      (opts_for ~env:(Faulty_env.env fault) dir) with
      Options.wal_sync = `Async;
      (* an eager background scrub keeps re-reading blocks the cache
         would otherwise hide from the rot *)
      scrub_interval = 0.02;
      (* repair runs explicitly AFTER the rot stops: under ongoing rot a
         background repair would re-verify a suspect table through the
         same lying reads, conclude "persistently damaged" and discard a
         file whose platter is actually clean. (A real disk that fails a
         re-verify IS damaged — transient flips on the wire are this
         injector's fiction.) *)
      auto_repair = false;
    }
  in
  let db = Db.open_store opts in
  let gens = 4 in
  let value_of k g = Printf.sprintf "%s:g%d" (key_of k) g in
  for g = 1 to gens do
    for k = 0 to num_keys - 1 do
      Db.put db ~key:(key_of k) ~value:(value_of k g)
    done;
    (* each generation lands in its own set of tables *)
    Db.compact_now db
  done;
  let check_answer ~ctx k = function
    | None -> ()
    | Some v ->
        let committed = ref false in
        for g = 1 to gens do
          if String.equal v (value_of k g) then committed := true
        done;
        if not !committed then
          Alcotest.failf "seed %d: %s returned fabricated data for %s: %S"
            seed ctx (key_of k) v
  in
  Faulty_env.set_fault_rates fault ~corrupt_read_1_in:12 ();
  for _round = 1 to 3 do
    for _ = 1 to 150 do
      let k = Random.State.int rng num_keys in
      match Db.get db (key_of k) with
      | ans -> check_answer ~ctx:"get" k ans
      | exception Table_file.Corruption _ ->
          (* surfaced through an iterator-backed path; the table is
             queued for re-verification *)
          ()
    done;
    (* A scan must not fabricate data either. It may abort on a rotten
       block (typed Corruption) — acceptable: the table is queued for
       re-verification and a retry after repair answers. *)
    (match Db.range ~limit:(num_keys * 2) db with
    | kvs ->
        List.iter
          (fun (k, v) ->
            match int_of_string_opt (String.sub k 3 (String.length k - 3)) with
            | Some i -> check_answer ~ctx:"scan" i (Some v)
            | None -> Alcotest.failf "seed %d: scan fabricated key %S" seed k)
          kvs
    | exception Table_file.Corruption _ -> ());
    (* Foreground scrub: reads every block past the cache, so the rot
       cannot hide behind cache hits. Its report may or may not be
       empty — the campaign only requires detection to be sound. *)
    ignore (Db.scrub_now db : string list)
  done;
  (* The rot stops. Self-healing must now converge to [`Ok] with no
     data loss: every suspect table re-verifies clean off the disk and
     keeps its place. *)
  Faulty_env.set_fault_rates fault ~corrupt_read_1_in:0 ();
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec heal () =
    match Db.repair_now db with
    | `Ok -> ()
    | (`Partial _ | `Degraded _) when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        heal ()
    | `Partial reason | `Degraded reason ->
        Alcotest.failf "seed %d: failed to heal online: %s" seed reason
  in
  heal ();
  (* The platter was clean throughout, so a table set aside is a false
     discard. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".quarantined" then
        Alcotest.failf "seed %d: clean table discarded: %s" seed name)
    (Sys.readdir dir);
  for k = 0 to num_keys - 1 do
    match Db.get db (key_of k) with
    | Some v when String.equal v (value_of k gens) -> ()
    | other ->
        Alcotest.failf "seed %d: after repair %s = %s, want %S" seed (key_of k)
          (match other with Some v -> Printf.sprintf "%S" v | None -> "<none>")
          (value_of k gens)
  done;
  let snap = Db.stats db in
  if
    Faulty_env.injected_corruptions fault > 0
    && snap.Stats.corruptions_detected = 0
  then
    Alcotest.failf "seed %d: %d corruption(s) injected but none detected" seed
      (Faulty_env.injected_corruptions fault);
  (match Db.verify_integrity db with
  | [] -> ()
  | errs ->
      Alcotest.failf "seed %d: integrity after heal: %s" seed
        (String.concat "; " errs));
  Db.close db;
  Test_dirs.rm_rf dir

(* ---------- group-commit torture ---------- *)

(* The crash campaign re-run against [`Group] WAL mode with genuinely
   concurrent committers, so the crash point can land anywhere in the
   leader/rider protocol:

   - before the batch write: no record of the batch reaches the log —
     every rider raises, nothing was acked, nothing may surface;
   - between write and fsync ([Faulty_env] ticks the two separately):
     the batch bytes are unsynced, so the crash image keeps at most a
     torn slice of them — still unacked, may legally surface or not;
   - after fsync, before the riders wake: the batch is durable but
     unacknowledged (the ack raced the crash) — it may surface, and
     riders observe [Env.Crashed] from their own later operations.

   Each writer domain owns a disjoint key partition and its own
   acked/pending model (group commit batches across writers, but each
   key's history stays single-writer, so "acked state is exact" remains
   well-defined). The invariant is the campaign's usual one: everything
   acknowledged survives recovery exactly; nothing unacknowledged
   resurrects as a value that was never attempted. *)
let run_group_commit_seed ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed; 53 |] in
  let fault = Faulty_env.create ~seed () in
  (* Sweep the policy space deterministically per seed: tiny batches
     (leaders outnumber riders), wide batches, no/short accumulation
     windows, and a long one that only boarding riders close early, so
     crash points land inside parked windows too. *)
  let max_batch = [| 1; 2; 4; 8 |].(Random.State.int rng 4) in
  let max_delay_us = [| 0; 100; 500; 50_000 |].(Random.State.int rng 4) in
  let opts =
    {
      (opts_for ~env:(Faulty_env.env fault) dir) with
      Options.wal_sync = `Group { Options.max_batch; max_delay_us };
    }
  in
  let db = Db.open_store opts in
  let writers = 3 in
  let models =
    Array.init writers (fun _ ->
        { acked = Hashtbl.create 64; pending = Hashtbl.create 16 })
  in
  Faulty_env.arm fault ~crash_after:(20 + Random.State.int rng 400);
  let crashed = Atomic.make false in
  let writer d () =
    let m = models.(d) in
    let rng = Random.State.make [| seed; d; 97 |] in
    (* keys of this writer's partition only *)
    let my_key () =
      let i = Random.State.int rng (num_keys / writers) in
      key_of ((i * writers) + d)
    in
    let ops = ref 0 in
    while (not (Atomic.get crashed)) && !ops < 200 do
      incr ops;
      let key = my_key () in
      match Random.State.int rng 10 with
      | 0 | 1 -> (
          attempt m key None;
          match Db.delete db ~key with
          | () -> ack m key None
          | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
              Atomic.set crashed true)
      | 2 -> (
          let key2 = my_key () in
          let v1 = Printf.sprintf "b%d-%d-%d" seed d !ops
          and v2 = Printf.sprintf "b%d-%d-%d'" seed d !ops in
          attempt m key (Some v1);
          attempt m key2 (Some v2);
          match
            Db.write_batch db [ Db.Batch_put (key, v1); Db.Batch_put (key2, v2) ]
          with
          | () ->
              (* key2 may equal key: ack in write order *)
              ack m key (Some v1);
              ack m key2 (Some v2)
          | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
              Atomic.set crashed true)
      | _ -> (
          let v = Printf.sprintf "v%d-%d-%d" seed d !ops in
          attempt m key (Some v);
          match Db.put db ~key ~value:v with
          | () -> ack m key (Some v)
          | exception (Env.Crashed | Env.Error _ | Store_sig.Degraded _) ->
              Atomic.set crashed true)
    done
  in
  List.init writers (fun d -> Domain.spawn (writer d)) |> List.iter Domain.join;
  Db.simulate_crash db;
  Faulty_env.install_crash_image fault;
  (* ---- restart on the crash image with a healthy environment ---- *)
  let clean_opts = { opts with Options.env = Env.unix } in
  let db = Db.open_store clean_opts in
  Db.compact_now db;
  (match Db.verify_integrity db with
  | [] -> ()
  | problems ->
      Alcotest.failf "seed %d: integrity violations: %s" seed
        (String.concat "; " problems));
  Array.iteri
    (fun d m ->
      (* Acked writes survive exactly; keys with pending (unacked)
         attempts may hold the acked value or any attempted one. *)
      Hashtbl.iter
        (fun key expect ->
          let got = Db.get db key in
          let allowed =
            expect :: Option.value ~default:[] (Hashtbl.find_opt m.pending key)
          in
          if not (List.mem got allowed) then
            Alcotest.failf "seed %d: writer %d key %s: got %s, allowed {%s}"
              seed d key
              (Option.value ~default:"<none>" got)
              (String.concat ", "
                 (List.map (Option.value ~default:"<none>") allowed)))
        m.acked;
      (* Never-acked keys can only be absent or hold an attempted value:
         an unacknowledged batch member must not resurrect as anything
         else. *)
      Hashtbl.iter
        (fun key states ->
          if not (Hashtbl.mem m.acked key) then
            let got = Db.get db key in
            if not (List.mem got (None :: states)) then
              Alcotest.failf
                "seed %d: writer %d unacked key %s holds foreign value %s" seed
                d key
                (Option.value ~default:"<none>" got))
        m.pending)
    models;
  (* Fresh writes must win over everything recovered. *)
  Db.put db ~key:(key_of 0) ~value:"fresh";
  if Db.get db (key_of 0) <> Some "fresh" then
    Alcotest.failf "seed %d: recovered timestamps shadow new writes" seed;
  Db.close db;
  check_dir_consistent ~seed ~label:"group" dir;
  let db = Db.open_store clean_opts in
  if Db.get db (key_of 0) <> Some "fresh" then
    Alcotest.failf "seed %d: second reopen lost data" seed;
  Db.close db;
  Test_dirs.rm_rf dir

(* Post-crash scribble: the torn tail of any file with unsynced appends
   is overwritten with garbage instead of just truncated — the disk that
   lies about what it wrote. Sync-WAL acked writes live in the synced
   prefix, so recovery (CRC-guarded, salvage mode) must keep every one
   of them and come up healthy despite the scribbled tail. *)
let run_scribble_seed ~dir seed =
  Test_dirs.rm_rf dir;
  let rng = Random.State.make [| seed; 41 |] in
  let fault = Faulty_env.create ~seed () in
  let opts = opts_for ~env:(Faulty_env.env fault) dir in
  let db = Db.open_store opts in
  let acked : (string, string) Hashtbl.t = Hashtbl.create 64 in
  Faulty_env.arm fault ~crash_after:(20 + Random.State.int rng 200);
  (try
     for i = 0 to 2999 do
       let k = key_of (Random.State.int rng num_keys) in
       let v = Printf.sprintf "s%d-%d" seed i in
       Db.put db ~key:k ~value:v;
       Hashtbl.replace acked k v
     done
   with Env.Crashed | Env.Error _ | Store_sig.Degraded _ -> ());
  Db.simulate_crash db;
  Faulty_env.install_crash_image ~scribble:true fault;
  let db = Db.open_store { opts with Options.env = Env.unix } in
  Hashtbl.iter
    (fun k v ->
      match Db.get db k with
      | Some v' when String.equal v v' -> ()
      | Some v' ->
          Alcotest.failf "seed %d: acked %s=%S read back %S" seed k v v'
      | None -> Alcotest.failf "seed %d: acked %s=%S lost" seed k v)
    acked;
  (match Db.health db with
  | `Ok -> ()
  | `Partial r | `Degraded r ->
      Alcotest.failf "seed %d: unhealthy after scribbled recovery: %s" seed r);
  (match Db.verify_integrity db with
  | [] -> ()
  | errs ->
      Alcotest.failf "seed %d: integrity after scribbled recovery: %s" seed
        (String.concat "; " errs));
  Db.close db;
  Test_dirs.rm_rf dir

(* Seed count: TORTURE_SEEDS (default 200). CI pins a smaller budget to
   stay fast; local runs can go as deep as patience allows. The seed
   formula is unchanged from the original 50-seed harness, so the first 50
   schedules are the ones every previous CI run has passed. *)
let num_seeds =
  match Sys.getenv_opt "TORTURE_SEEDS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> failwith "TORTURE_SEEDS must be a positive integer")
  | None -> 200

let seeds = List.init num_seeds (fun i -> 1000 + (i * 77))

(* The sharded campaign reuses the seed stream at a quarter of the
   budget (each sharded cycle opens/recovers three stores). *)
let sharded_seeds =
  List.filteri (fun i _ -> i < max 2 (num_seeds / 4)) seeds

(* So does the sequential-key campaign. *)
let sequential_seeds = sharded_seeds

(* The silent-corruption campaign has its own budget knob (BITROT_SEEDS,
   default 50 — the acceptance bar: 50 seeds, zero wrong answers). *)
let bitrot_seeds =
  let n =
    match Sys.getenv_opt "BITROT_SEEDS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> n
        | _ -> failwith "BITROT_SEEDS must be a positive integer")
    | None -> 50
  in
  List.init n (fun i -> 9000 + (i * 31))

let scribble_seeds =
  List.filteri (fun i _ -> i < max 3 (List.length bitrot_seeds / 5)) bitrot_seeds

(* The group-commit campaign has its own budget knob (GROUP_COMMIT_SEEDS,
   default 50 — the acceptance bar: 50 seeds, acked writes survive, no
   resurrections). *)
let group_commit_seeds =
  let n =
    match Sys.getenv_opt "GROUP_COMMIT_SEEDS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> n
        | _ -> failwith "GROUP_COMMIT_SEEDS must be a positive integer")
    | None -> 50
  in
  List.init n (fun i -> 17000 + (i * 53))

let () =
  Alcotest.run "clsm-torture"
    [
      ( "torture",
        List.map (seed_case "seed" run_one_seed) seeds );
      ( "torture-sharded",
        List.map (seed_case "sharded_seed" run_one_sharded_seed) sharded_seeds );
      ( "torture-sequential",
        List.map (seed_case "sequential_seed" run_sequential_seed) sequential_seeds
        @ [
            Alcotest.test_case "the campaign moved tables" `Slow (fun () ->
                Printf.printf "compaction moves before the crashes: %d\n"
                  !sequential_moves;
                Alcotest.(check bool) "at least one move" true
                  (!sequential_moves > 0));
          ] );
      ( "degrade-isolation",
        List.map (seed_case "degrade_seed" run_degrade_isolation) [ 4242; 4319; 4396 ]
      );
      ( "bitrot",
        List.map (seed_case "bitrot_seed" run_bitrot_seed) bitrot_seeds );
      ( "crash-scribble",
        List.map (seed_case "scribble_seed" run_scribble_seed) scribble_seeds );
      ( "group-commit",
        List.map (seed_case "group_seed" run_group_commit_seed) group_commit_seeds );
    ]
