(* Benchmark harness entry point.

   Default: run every paper figure through the simulator.
   --figure <id>   one figure (fig1 fig5a fig5b fig6a fig6b fig7a fig7b
                   fig8 fig9 fig10 fig11)
   --calibrate     ns and minor words per call of the real implementation,
                   one row per simulator cost it backs
   --real [quick]  real-execution cross-checks (multi-domain driver)
   --ablations     design-choice ablation sweeps
   --compaction [smoke] [--out FILE]
                   mixed put/get workload over a small memtable, so
                   flushes and L0→L1 merges dominate; emits the
                   clsm-bench/1 JSON schema (default
                   BENCH_compaction.json)
   --sharded [smoke] [--out FILE]
                   mixed workload against the range-shard router at
                   shards 1/2/4; same JSON schema (default
                   BENCH_sharded.json)
   --durability [smoke] [--out FILE]
                   4-writer durable-put bench across the three WAL
                   policies (per-write / group / async); same JSON
                   schema (default BENCH_durability.json)
   --read [smoke] [--out FILE]
                   reader-domain scaling (1..16 readers × uniform/zipfian
                   × point-get/scan) over a cache-resident working set;
                   same JSON schema (default BENCH_read.json)
   --kernels [smoke] [--out FILE]
                   MB/s of the per-block byte loops: Crc32c.sub and
                   Env.unix rf_read on 4 KB blocks, and one L0→L1 merge;
                   ns and minor words per cached point lookup
                   (Table.find_last_le, its index search and its
                   block seek_le alone (exit 1 if that allocates),
                   Db.get, and Db.get on 40 B keys and 1 KB values),
                   per internal-key compare on 8 B and 40 B user keys
                   (exit 1 if one allocates),
                   per lookup that
                   misses the cache (with major words), per cached scan
                   (Db.range of 1 and of 50 rows) and per clock call
                   (getSnap's timestamp in both modes, the RMW fence,
                   a put's getTS) and per entry merged by each
                   Merge_iter engine at 2, 4, 8 and 16 sources; same
                   JSON schema (default BENCH_kernels.json) *)

(* The clsm-bench/1 modes share their flags: [smoke] selects the
   seconds-scale run, [--out FILE] the JSON path (else [default_out]). *)
let json_mode rest ~default_out run =
  let scale =
    if List.mem "smoke" rest then Bench_store.Smoke else Bench_store.Full
  in
  let rec out_of = function
    | "--out" :: path :: _ -> path
    | _ :: tl -> out_of tl
    | [] -> default_out
  in
  run ~scale ~out:(out_of rest)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "--compaction" :: rest ->
      json_mode rest ~default_out:"BENCH_compaction.json" Bench_store.run
  | "--durability" :: rest ->
      json_mode rest ~default_out:"BENCH_durability.json"
        Bench_store.run_durability
  | "--read" :: rest ->
      json_mode rest ~default_out:"BENCH_read.json" Bench_store.run_read
  | "--kernels" :: rest ->
      json_mode rest ~default_out:"BENCH_kernels.json" Bench_store.run_kernels
  | "--sharded" :: rest ->
      json_mode rest ~default_out:"BENCH_sharded.json" Bench_sharded.run
  | [] | [ "--figures" ] ->
      print_endline
        "cLSM benchmark harness: regenerating all paper figures (simulated \
         multicore; see DESIGN.md)";
      Figures.run_all ()
  | [ "--figure"; name ] -> Figures.run name
  | [ "--calibrate" ] -> Calibrate.run ()
  | [ "--real" ] -> Real_check.run ~quick:false
  | [ "--real"; "quick" ] -> Real_check.run ~quick:true
  | [ "--ablations" ] -> Ablations.run ()
  | [ "--sensitivity" ] -> Sensitivity.run ()
  | [ "--all" ] ->
      Calibrate.run ();
      Figures.run_all ();
      Ablations.run ();
      Sensitivity.run ();
      Real_check.run ~quick:true
  | _ ->
      prerr_endline
        "usage: main.exe [--figure <id> | --calibrate | --real [quick] | \
         --ablations | --sensitivity | --all]";
      exit 1
