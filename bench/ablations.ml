(* Ablations of the design choices called out in DESIGN.md §5: each sweep
   isolates one mechanism and reports its contribution. *)

open Clsm_sim_lsm
open Clsm_workload
module Time_ns = Clsm_util.Time_ns

let line fmt = Printf.printf (fmt ^^ "\n%!")
let kops v = v /. 1000.0

let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "clsm_abl_%s_%d" name (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm d;
  d

(* 1. Shared-exclusive lock vs a global mutex around the SAME lock-free
   memtable: isolates Algorithm 1's contribution from the skip-list's.
   Modeled as the LevelDB discipline with its extra writer-side work
   removed, so the only difference from cLSM is the serialization. *)
let lock_granularity () =
  line "";
  line "== Ablation: Algorithm 1 shared lock vs global mutex (write-only) ==";
  let spec = Workload_spec.write_only ~space:10_000_000 in
  let threads = [ 1; 2; 4; 8; 16 ] in
  let mutex_costs = { Costs.default with Costs.leveldb_write_extra = 0.0 } in
  let run system costs =
    List.map
      (fun n ->
        (Experiment.run
           (Experiment.config ~costs ~duration:0.4 ~system ~threads:n spec))
          .Experiment.throughput)
      threads
  in
  line "%-26s %s" "threads ->"
    (String.concat "" (List.map (Printf.sprintf "%9d") threads));
  line "%-26s %s" "global mutex + lockfree mt"
    (String.concat ""
       (List.map (fun v -> Printf.sprintf "%9.0f" (kops v))
          (run System.Leveldb mutex_costs)));
  line "%-26s %s" "cLSM shared-exclusive"
    (String.concat ""
       (List.map (fun v -> Printf.sprintf "%9.0f" (kops v))
          (run System.Clsm Costs.default)));
  line "   (Kops/s; the gap is what non-blocking puts buy beyond the data structure)"

(* 2. Snapshot protocol: Algorithm 2's Active set vs the naive timeCounter
   read of Figure 3. A snapshot read must be repeatable: with the naive
   timestamp, a put that acquired ts <= snapTime but had not yet inserted
   when the snapshot was taken can surface mid-scan, so reading the same
   key twice inside one snapshot can yield two different values — exactly
   the Figure 3/4 hazard. Algorithm 2's Active-set wait makes this
   impossible. *)
let snapshot_protocol () =
  line "";
  line "== Ablation: Algorithm 2 snapshots vs naive timeCounter read ==";
  let run_mode ~naive =
    let dir = tmp_dir (if naive then "snap_naive" else "snap_algo2") in
    let opts =
      {
        (Clsm_core.Options.default ~dir) with
        Clsm_core.Options.memtable_bytes = 1 lsl 22;
        snapshots =
          (if naive then Clsm_core.Clock.Unsafe_naive
           else Clsm_core.Clock.Serializable);
      }
    in
    let db = Clsm_core.Db.open_store opts in
    let stop = Atomic.make false in
    let writer seed () =
      let i = ref seed in
      while not (Atomic.get stop) do
        incr i;
        Clsm_core.Db.put db
          ~key:(Printf.sprintf "k%02d" (!i mod 16))
          ~value:(string_of_int !i)
      done;
      0
    in
    let violations = ref 0 and snaps = ref 0 in
    let snapshotter () =
      let t0 = Time_ns.now_ns () in
      let deadline = t0 + 6_000_000_000 in
      while Time_ns.now_ns () < deadline do
        let s = Clsm_core.Db.get_snap db in
        incr snaps;
        for k = 0 to 15 do
          let key = Printf.sprintf "k%02d" k in
          let first = Clsm_core.Db.get_at db s key in
          let second = Clsm_core.Db.get_at db s key in
          if first <> second then incr violations
        done;
        Clsm_core.Db.release_snapshot db s
      done;
      Atomic.set stop true;
      Time_ns.now_ns () - t0
    in
    let w = Domain.spawn (writer 0) in
    let w2 = Domain.spawn (writer 1_000_000) in
    let sd = Domain.spawn snapshotter in
    let elapsed_ns = Domain.join sd in
    ignore (Domain.join w);
    ignore (Domain.join w2);
    Clsm_core.Db.close db;
    (!violations, !snaps, elapsed_ns / max 1 !snaps)
  in
  let naive_inv, naive_snaps, naive_ns = run_mode ~naive:true in
  let algo_inv, algo_snaps, algo_ns = run_mode ~naive:false in
  line "%-24s %12s %20s %18s" "mode" "snapshots" "unrepeatable reads" "ns/snapshot-cycle";
  line "%-24s %12d %20d %18d" "naive timeCounter" naive_snaps naive_inv naive_ns;
  line "%-24s %12d %20d %18d" "Algorithm 2" algo_snaps algo_inv algo_ns;
  line
    "   (the naive count is racy — any nonzero value is a serializability violation;";
  line "    Algorithm 2 must always report 0)"

(* 3. Serializable vs linearizable getSnap cost under concurrent writers. *)
let snapshot_linearizability () =
  line "";
  line "== Ablation: serializable vs linearizable getSnap ==";
  let run_mode ~linearizable =
    let dir = tmp_dir (if linearizable then "lin" else "ser") in
    let opts =
      {
        (Clsm_core.Options.default ~dir) with
        Clsm_core.Options.memtable_bytes = 1 lsl 22;
        snapshots =
          (if linearizable then Clsm_core.Clock.Linearizable
           else Clsm_core.Clock.Serializable);
      }
    in
    let db = Clsm_core.Db.open_store opts in
    let stop = Atomic.make false in
    let writer () =
      let i = ref 0 in
      while not (Atomic.get stop) do
        incr i;
        Clsm_core.Db.put db ~key:(string_of_int (!i mod 1000)) ~value:"v"
      done;
      0
    in
    let w = Domain.spawn writer in
    let t0 = Time_ns.now_ns () in
    let n = 20_000 in
    for _ = 1 to n do
      let s = Clsm_core.Db.get_snap db in
      Clsm_core.Db.release_snapshot db s
    done;
    let per = float_of_int (Time_ns.now_ns () - t0) /. float_of_int n in
    Atomic.set stop true;
    ignore (Domain.join w);
    Clsm_core.Db.close db;
    per
  in
  let ser = run_mode ~linearizable:false in
  let lin = run_mode ~linearizable:true in
  line "serializable getSnap: %8.0f ns    linearizable getSnap: %8.0f ns" ser lin

(* 4. Bloom filters on/off: negative-lookup throughput against the disk
   component. *)
let bloom_filters () =
  line "";
  line "== Ablation: Bloom filters on/off (absent-key gets vs disk component) ==";
  let run_mode ~bits =
    let dir = tmp_dir (Printf.sprintf "bloom%d" bits) in
    let opts =
      {
        (Clsm_core.Options.default ~dir) with
        Clsm_core.Options.memtable_bytes = 1 lsl 20;
        (* tiny cache so absent-key probes that pass the filter really pay
           for block loads *)
        cache_bytes = 1 lsl 18;
        lsm = { Clsm_lsm.Lsm_config.default with
                Clsm_lsm.Lsm_config.bits_per_key = bits;
                block_size = 1024 };
      }
    in
    let db = Clsm_core.Db.open_store opts in
    for i = 0 to 49_999 do
      Clsm_core.Db.put db ~key:(Printf.sprintf "present%08d" i) ~value:"v"
    done;
    Clsm_core.Db.compact_now db;
    let t0 = Time_ns.now_s () in
    let n = 100_000 in
    for i = 0 to n - 1 do
      ignore (Clsm_core.Db.get db (Printf.sprintf "absent%08d" i))
    done;
    let rate = float_of_int n /. (Time_ns.now_s () -. t0) in
    Clsm_core.Db.close db;
    rate
  in
  let on = run_mode ~bits:10 in
  let off = run_mode ~bits:0 in
  line "bloom 10 bits/key: %8.0f Kops/s   bloom disabled: %8.0f Kops/s (%.1fx)"
    (kops on) (kops off) (on /. off)

(* 5. Async vs group vs per-write WAL: put throughput. Single-threaded,
   so the group accumulation window is set to 0 — with one committer
   there is nobody to wait for, and the ablation isolates the protocol
   overhead rather than an idle delay. The multi-writer amortization is
   bench_store's --durability phase. *)
let wal_mode () =
  line "";
  line "== Ablation: asynchronous vs group vs per-write logging ==";
  let run_mode ~name ~wal_sync ~n =
    let dir = tmp_dir ("wal" ^ name) in
    let opts =
      {
        (Clsm_core.Options.default ~dir) with
        Clsm_core.Options.memtable_bytes = 1 lsl 24;
        wal_sync;
      }
    in
    let db = Clsm_core.Db.open_store opts in
    let t0 = Time_ns.now_s () in
    for i = 0 to n - 1 do
      Clsm_core.Db.put db ~key:(Printf.sprintf "k%08d" i) ~value:(String.make 256 'v')
    done;
    let rate = float_of_int n /. (Time_ns.now_s () -. t0) in
    Clsm_core.Db.close db;
    rate
  in
  let async = run_mode ~name:"async" ~wal_sync:`Async ~n:50_000 in
  let group =
    run_mode ~name:"group"
      ~wal_sync:(`Group { Clsm_core.Options.max_batch = 64; max_delay_us = 0 })
      ~n:2_000
  in
  let sync = run_mode ~name:"sync" ~wal_sync:`Per_write ~n:2_000 in
  line "async WAL: %8.0f Kops/s   group WAL: %8.3f Kops/s   per-write WAL: %8.3f Kops/s (async/per-write %.0fx)"
    (kops async) (kops group) (kops sync) (async /. sync)

let run () =
  lock_granularity ();
  snapshot_protocol ();
  snapshot_linearizability ();
  bloom_filters ();
  wal_mode ()
