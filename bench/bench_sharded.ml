(* Range-sharded store benchmark: the same mixed workload (multi-domain
   writers, 10% reads, periodic cross-shard scans) against the router at
   shards ∈ {1, 2, 4}, emitting the clsm-bench/1 JSON schema
   (BENCH_sharded.json checked in, BENCH_sharded_smoke.json as a CI
   artifact).

   Shard boundaries split the bench's numeric "user%08d" keyspace evenly
   — the byte-uniform default would park every key in one shard.

   CAVEAT baked into the JSON: on the single-core CI container the
   sharded rows measure routing + shared-clock overhead, not scaling;
   the paper's Figure-5-style speedups need real parallelism (shards
   multiply the memtables, WAL tails and flush pipelines, which only
   helps when domains actually run in parallel). *)

module Histogram = Clsm_util.Histogram
module Time_ns = Clsm_util.Time_ns
module Sharded_db = Clsm_core.Sharded_db
module Options = Clsm_core.Options
module Stats = Clsm_core.Stats
module J = Bench_store.J

let bound_keys ~shards ~key_space =
  List.init (shards - 1) (fun j ->
      Printf.sprintf "user%08d" ((j + 1) * key_space / shards))

let sharded_opts ~dir ~shards ~key_space =
  let base = Bench_store.mixed_opts ~dir in
  {
    base with
    Options.shards;
    shard_boundaries =
      (if shards = 1 then None else Some (bound_keys ~shards ~key_space));
  }

let run_one ~scale ~shards =
  let writers = 2 in
  let ops_per_writer =
    match scale with Bench_store.Smoke -> 4_000 | Full -> 30_000
  in
  let key_space =
    match scale with Bench_store.Smoke -> 10_000 | Full -> 100_000
  in
  let value = String.make 256 'v' in
  let dir = Bench_store.fresh_dir () in
  let db = Sharded_db.open_store (sharded_opts ~dir ~shards ~key_space) in
  let scan_rows = Atomic.make 0 in
  let t0 = Time_ns.now_s () in
  let worker w =
    let h = Histogram.create () in
    let state = ref (w * 7919) in
    for i = 1 to ops_per_writer do
      let k =
        Printf.sprintf "user%08d" (Bench_store.next_key state ~key_space)
      in
      let op_start = Time_ns.now_ns () in
      if i mod 500 = 0 then
        (* a bounded cross-shard scan: one fence, merged shard iterators *)
        ignore
          (Atomic.fetch_and_add scan_rows
             (List.length (Sharded_db.range ~start:k ~limit:100 db)))
      else if i mod 10 = 0 then ignore (Sharded_db.get db k)
      else Sharded_db.put db ~key:k ~value;
      Histogram.record h (Time_ns.now_ns () - op_start)
    done;
    h
  in
  let domains =
    List.init (writers - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1)))
  in
  let h0 = worker 0 in
  let hists = h0 :: List.map Domain.join domains in
  let wall = Time_ns.now_s () -. t0 in
  let h = Histogram.merge hists in
  let s = Sharded_db.stats db in
  let per_shard = Sharded_db.shard_stats db in
  Sharded_db.close db;
  Bench_store.rm_rf dir;
  let ops = writers * ops_per_writer in
  J.Obj
    [
      ("shards", J.Int shards);
      ("writers", J.Int writers);
      ("ops", J.Int ops);
      ("wall_s", J.Float wall);
      ("ops_per_s", J.Float (float_of_int ops /. wall));
      ("op_p50_us", J.Float (float_of_int (Histogram.percentile h 50.0) /. 1e3));
      ("op_p99_us", J.Float (float_of_int (Histogram.percentile h 99.0) /. 1e3));
      ("scan_rows", J.Int (Atomic.get scan_rows));
      ("stall_s", J.Float (float_of_int s.Stats.stall_ns /. 1e9));
      ("write_stalls", J.Int s.Stats.write_stalls);
      ("slowdown_s", J.Float (float_of_int s.Stats.slowdown_delay_ns /. 1e9));
      ("compaction_s", J.Float (float_of_int s.Stats.compaction_ns /. 1e9));
      ("compactions", J.Int s.Stats.compactions);
      ("compaction_moves", J.Int s.Stats.compaction_moves);
      ("flushes", J.Int s.Stats.flushes);
      ("bytes_flushed", J.Int s.Stats.bytes_flushed);
      ("bytes_compacted", J.Int s.Stats.bytes_compacted);
      ("snapshots", J.Int s.Stats.snapshots_taken);
      ( "puts_per_shard",
        J.List
          (Array.to_list (Array.map (fun p -> J.Int p.Stats.puts) per_shard)) );
    ]

let run ~scale ~out =
  Printf.printf "clsm sharded-store bench (%s scale, %d core(s))\n%!"
    (Bench_store.scale_name scale)
    (Domain.recommended_domain_count ());
  let rows =
    List.map
      (fun shards ->
        let row = run_one ~scale ~shards in
        Printf.printf "  shards=%d done\n%!" shards;
        row)
      [ 1; 2; 4 ]
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "clsm-bench/1");
        ("bench", J.Str "sharded");
        ("scale", J.Str (Bench_store.scale_name scale));
        ( "host",
          J.Obj
            [
              ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
            ] );
        ( "caveat",
          J.Str
            "single-core containers measure routing + shared-clock overhead \
             only; shard scaling requires real multicore parallelism" );
        ("sharded_mixed_workload", J.List rows);
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out
