(* clsm_bench: the repository benchmark (see BENCHMARK.json and README.md).

   One workload:
     clsm_bench.exe --workload W --seed S [--seconds T] [--trace]
   sets the store up several times (reporting the median set-up time),
   measures T seconds of closed-loop load from 2 client domains, checks
   every result, and prints "workload metric value unit" lines followed
   by one JSON result line. Without --trace the result carries the
   end-to-end metrics; with --trace it carries the per-layer metrics,
   taken from a second, traced phase on the same store followed by the
   layer probes.

   All workloads:
     clsm_bench.exe --seed S [--repeat N] [--trace] --out FILE
   runs each workload N times (seeds S .. S+N-1), each run in a fresh
   child process so peak RSS and GC state belong to one run, and writes
   every run plus each metric's median and quartiles to FILE.

   Smoke check (the runtest rule):
     clsm_bench.exe --smoke-check BENCHMARK.json
   runs every workload at smoke scale, traced and untraced, and fails
   unless every check passes and every workload and metric that
   BENCHMARK.json names is reported. *)

open Clsm_core
module Cache = Clsm_sstable.Cache

(* ---------- metric catalogue (must match BENCHMARK.json) ---------- *)

(* Latency percentiles and memory are per-layer: on a shared 2-vCPU host
   their run-to-run spread exceeds any bound a regression check could use
   (see README.md). *)
let end_to_end =
  [ ("ops_per_s", "1/s"); ("write_amp", "ratio"); ("space_amp", "ratio"); ("setup_s", "s") ]

let per_layer =
  [
    ("get_p50_us", "us");
    ("get_p99_us", "us");
    ("scan_p50_us", "us");
    ("scan_p99_us", "us");
    ("put_p50_us", "us");
    ("put_p99_us", "us");
    ("store.get_self_us_p50", "us");
    ("store.scan_self_us_p50", "us");
    ("store.put_self_us_p50", "us");
    ("store.get_p999_us", "us");
    ("store.put_p999_us", "us");
    ("store.max_op_ms", "ms");
    ("backpressure.slowdowns", "count");
    ("backpressure.slowdown_s", "s");
    ("backpressure.stalls", "count");
    ("backpressure.stall_s", "s");
    ("memtable.rotations", "count");
    ("memtable.add_ns", "ns");
    ("memtable.get_ns", "ns");
    ("clock.put_ts_ns", "ns");
    ("clock.snap_ts_us", "us");
    ("wal.group_commits", "count");
    ("wal.mean_group_size", "count");
    ("wal.commit_wait_p50_us", "us");
    ("wal.commit_wait_p99_us", "us");
    ("wal.async_append_ns", "ns");
    ("wal.group_append_us", "us");
    ("cache.hit_rate", "ratio");
    ("cache.misses", "count");
    ("cache.evictions", "count");
    ("cache.singleflight_waits", "count");
    ("cache.readahead_blocks", "count");
    ("cache.weight_mb", "MB");
    ("table.find_hit_ns", "ns");
    ("table.find_cold_us", "us");
    ("flush.count", "count");
    ("flush.bytes", "bytes");
    ("compaction.count", "count");
    ("compaction.busy_s", "s");
    ("compaction.busy_frac", "ratio");
    ("compaction.bytes", "bytes");
    ("compaction.merge_mb_per_s", "MB/s");
    ("maintenance.wakeups", "count");
    ("lsm.l0_files_max", "count");
    ("lsm.l0_files_mean", "count");
    ("lsm.sst_mb_end", "MB");
    ("env.wal_write_bytes", "bytes");
    ("env.sst_write_bytes", "bytes");
    ("env.manifest_write_bytes", "bytes");
    ("env.wal_fsyncs", "count");
    ("env.sst_fsyncs", "count");
    ("env.wal_fsync_us_p50", "us");
    ("env.wal_fsync_us_p99", "us");
    ("env.read_calls", "count");
    ("env.read_bytes", "bytes");
    ("env.read_us_total", "us");
    ("env.fg_read_us_per_get", "us");
    ("env.fg_fsync_us_per_put", "us");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.pause_ms_total", "ms");
    ("gc.minor_pause_us_p99", "us");
    ("gc.heap_mb_peak", "MB");
    ("gc.live_heap_mb", "MB");
    ("process.peak_rss_mb", "MB");
    ("client.gen_ns_per_op", "ns");
    ("client.trace_overhead_pct", "%");
  ]

(* ---------- metrics of one run ---------- *)

let us ns = float_of_int ns /. 1e3
let mb bytes = float_of_int bytes /. float_of_int (1 lsl 20)

let median l = Samples.median_float (Array.of_list l)

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
        | None -> 0.0
      in
      find ())

let all_ops (p : Workload.phase) =
  let a = Array.concat (Array.to_list p.lat) in
  Array.sort Int.compare a;
  a

let ops_per_s (p : Workload.phase) = float_of_int p.attempted /. p.wall_s

(* [write_amp] counts every byte the store wrote since it was created,
   set-up included, against every user byte put into it. *)
let e2e_metrics (w : Workload.t) (store : Workload.store) (p : Workload.phase) ~setup_s =
  let written = Io_env.snapshot store.io in
  let stored = Workload.user_bytes w (w.spec.preload + Workload.acked_puts w) in
  [
    ("ops_per_s", ops_per_s p);
    ( "write_amp",
      Samples.ratio
        (Io_env.total written.s_write_bytes - written.s_write_bytes.(Io_env.other))
        stored );
    ("space_amp", p.space_amp);
    ("setup_s", setup_s);
  ]

let layer_metrics (store : Workload.store) ~(plain : Workload.phase)
    ~(traced : Workload.phase) =
  let q = traced in
  let s0 = q.stats0 and s1 = q.stats1 in
  let c0 = q.cache0 and c1 = q.cache1 in
  let io = Io_env.diff q.io1 q.io0 in
  let d f = f s1 - f s0 in
  let lat (p : Workload.phase) k pct = us (Samples.percentile p.lat.(k) pct) in
  let self k = us (Samples.percentile (Tracer.self_ns k) 50.) in
  let hits = c1.Cache.hits - c0.Cache.hits and misses = c1.misses - c0.misses in
  let commit_waits =
    {
      s1 with
      Stats.commit_wait_hist = Array.map2 ( - ) s1.Stats.commit_wait_hist s0.Stats.commit_wait_hist;
    }
  in
  let timeline = List.map (fun row -> row.(1)) !Tracer.timeline in
  let fsyncs = Tracer.wal_fsync_ns () in
  let gc = Tracer.client_gc_events () in
  let minor_pauses =
    Samples.sorted
      [
        (let s = Samples.create () in
         List.iter (fun (_, phase, _, dur) -> if phase = 0 then Samples.add s dur) gc;
         s);
      ]
  in
  let gets = Array.length q.lat.(Tracer.kind_get) in
  let puts = Array.length q.lat.(Tracer.kind_put) in
  [
    ("get_p50_us", lat plain Tracer.kind_get 50.);
    ("get_p99_us", lat plain Tracer.kind_get 99.);
    ("scan_p50_us", lat plain Tracer.kind_scan 50.);
    ("scan_p99_us", lat plain Tracer.kind_scan 99.);
    ("put_p50_us", lat plain Tracer.kind_put 50.);
    ("put_p99_us", lat plain Tracer.kind_put 99.);
    ("store.get_self_us_p50", self Tracer.kind_get);
    ("store.scan_self_us_p50", self Tracer.kind_scan);
    ("store.put_self_us_p50", self Tracer.kind_put);
    ("store.get_p999_us", lat q Tracer.kind_get 99.9);
    ("store.put_p999_us", lat q Tracer.kind_put 99.9);
    ("store.max_op_ms", float_of_int (Samples.max_of (all_ops q)) /. 1e6);
    ("backpressure.slowdowns", float_of_int (d (fun s -> s.Stats.write_slowdowns)));
    ("backpressure.slowdown_s", float_of_int (d (fun s -> s.Stats.slowdown_delay_ns)) /. 1e9);
    ("backpressure.stalls", float_of_int (d (fun s -> s.Stats.write_stalls)));
    ("backpressure.stall_s", float_of_int (d (fun s -> s.Stats.stall_ns)) /. 1e9);
    ("memtable.rotations", float_of_int (d (fun s -> s.Stats.memtable_rotations)));
    ("wal.group_commits", float_of_int (d (fun s -> s.Stats.wal_group_commits)));
    ( "wal.mean_group_size",
      Samples.ratio (d (fun s -> s.Stats.wal_group_records)) (d (fun s -> s.Stats.wal_group_commits)) );
    ("wal.commit_wait_p50_us", float_of_int (Stats.commit_wait_percentile_us commit_waits ~pct:50.0));
    ("wal.commit_wait_p99_us", float_of_int (Stats.commit_wait_percentile_us commit_waits ~pct:99.0));
    ("cache.hit_rate", Samples.ratio hits (hits + misses));
    ("cache.misses", float_of_int misses);
    ("cache.evictions", float_of_int (c1.evictions - c0.evictions));
    ("cache.singleflight_waits", float_of_int (c1.singleflight_waits - c0.singleflight_waits));
    ("cache.readahead_blocks", float_of_int (c1.readahead_blocks - c0.readahead_blocks));
    ("cache.weight_mb", mb c1.weight);
    ("flush.count", float_of_int (d (fun s -> s.Stats.flushes)));
    ("flush.bytes", float_of_int (d (fun s -> s.Stats.bytes_flushed)));
    ("compaction.count", float_of_int (d (fun s -> s.Stats.compactions)));
    ("compaction.busy_s", float_of_int (d (fun s -> s.Stats.compaction_ns)) /. 1e9);
    ( "compaction.busy_frac",
      float_of_int (d (fun s -> s.Stats.compaction_ns)) /. 1e9 /. q.wall_s );
    ("compaction.bytes", float_of_int (d (fun s -> s.Stats.bytes_compacted)));
    ("maintenance.wakeups", float_of_int (d (fun s -> s.Stats.maintenance_wakeups)));
    ("lsm.l0_files_max", float_of_int (List.fold_left max 0 timeline));
    ( "lsm.l0_files_mean",
      Samples.ratio (List.fold_left ( + ) 0 timeline) (List.length timeline) );
    ("lsm.sst_mb_end", mb (Workload.disk_bytes ~suffixes:[ ".sst" ] store.dir));
    ("env.wal_write_bytes", float_of_int io.s_write_bytes.(Io_env.wal));
    ("env.sst_write_bytes", float_of_int io.s_write_bytes.(Io_env.sst));
    ("env.manifest_write_bytes", float_of_int io.s_write_bytes.(Io_env.manifest));
    ("env.wal_fsyncs", float_of_int io.s_fsyncs.(Io_env.wal));
    ("env.sst_fsyncs", float_of_int io.s_fsyncs.(Io_env.sst));
    ("env.wal_fsync_us_p50", us (Samples.percentile fsyncs 50.));
    ("env.wal_fsync_us_p99", us (Samples.percentile fsyncs 99.));
    ("env.read_calls", float_of_int (Io_env.total io.s_read_calls));
    ("env.read_bytes", float_of_int (Io_env.total io.s_read_bytes));
    ("env.read_us_total", us (Tracer.sum (fun d -> d.Tracer.read_ns)));
    ( "env.fg_read_us_per_get",
      us (Tracer.sum (fun d -> d.Tracer.fg_read_ns_get)) /. float_of_int (max 1 gets) );
    ( "env.fg_fsync_us_per_put",
      us (Tracer.sum (fun d -> d.Tracer.fg_fsync_ns_put)) /. float_of_int (max 1 puts) );
    ("gc.minor_collections", float_of_int (q.gc1.Gc.minor_collections - q.gc0.Gc.minor_collections));
    ("gc.major_collections", float_of_int (q.gc1.Gc.major_collections - q.gc0.Gc.major_collections));
    ("gc.pause_ms_total", float_of_int (List.fold_left (fun a (_, _, _, dur) -> a + dur) 0 gc) /. 1e6);
    ("gc.minor_pause_us_p99", us (Samples.percentile minor_pauses 99.));
    ("gc.heap_mb_peak", mb (q.gc1.Gc.top_heap_words * (Sys.word_size / 8)));
    ("gc.live_heap_mb", plain.live_heap_mb);
    ("process.peak_rss_mb", peak_rss_mb ());
    ( "client.trace_overhead_pct",
      100. *. (1. -. (ops_per_s traced /. ops_per_s plain)) );
  ]

let probe_metrics (w : Workload.t) ~scale ~dir ~probe_dir =
  let full = scale = Workload.Full in
  let n = if full then 100_000 else 5_000 in
  let spec = w.spec in
  let keys = Array.init n (Clsm_workload.Key_dist.key_of_index ~key_len:spec.key_len) in
  let value = w.filler in
  let record = keys.(0) ^ value in
  let add_ns, get_ns = Probes.memtable ~n ~keys ~value in
  let put_ts_ns, snap_ts_ns = Probes.clock ~n in
  let async_ns = Probes.wal ~dir:probe_dir ~mode:Clsm_wal.Wal_writer.Async ~n ~record in
  let group_ns =
    Probes.wal ~dir:probe_dir
      ~mode:(Clsm_wal.Wal_writer.Group { max_batch = 64; max_delay_us = 50 })
      ~n:(if full then 200 else 20)
      ~record
  in
  let find_hit_ns, find_cold_ns = Probes.table ~dir ~n:(if full then 20_000 else 1_000) in
  let merge =
    Probes.compaction ~dir:probe_dir ~entries:(if full then 5_000 else 500) ~value
  in
  let gen_ns =
    let cl = w.cl.(0) and calls = if full then 200_000 else 5_000 in
    Probes.per_call (fun () ->
        ( Probes.time (fun () ->
              for _ = 1 to calls do
                ignore (Workload.next_op w cl : Workload.op)
              done),
          calls ))
  in
  [
    ("memtable.add_ns", add_ns);
    ("memtable.get_ns", get_ns);
    ("clock.put_ts_ns", put_ts_ns);
    ("clock.snap_ts_us", snap_ts_ns /. 1e3);
    ("wal.async_append_ns", async_ns);
    ("wal.group_append_us", group_ns /. 1e3);
    ("table.find_hit_ns", find_hit_ns);
    ("table.find_cold_us", find_cold_ns /. 1e3);
    ("compaction.merge_mb_per_s", merge);
    ("client.gen_ns_per_op", gen_ns);
  ]

(* ---------- one workload, in this process ---------- *)

type options = {
  workload : string option;
  seed : int;
  seconds : float option;
  scale : Workload.scale;
  trace : bool;
  repeat : int;
  out : string option;
  workdir : string;
  smoke_check : string option;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let default_seconds = function Workload.Full -> 10.0 | Smoke -> 0.3

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

let run_workload o name =
  let scale = o.scale in
  let full = scale = Workload.Full in
  let seconds = Option.value o.seconds ~default:(default_seconds scale) in
  let w = Workload.create (Workload.spec scale name) ~seed:o.seed in
  mkdir_p o.workdir;
  let dir i = Filename.concat o.workdir (Printf.sprintf "%s-%d.%d" name (Unix.getpid ()) i) in
  (* Several set-ups, each on a fresh directory; the last is measured. *)
  let setups = if full then 3 else 1 in
  Printf.printf "# %s seed %d, %d clients, %s s measured%s, %d set-ups\n%!" name o.seed
    Workload.clients (Json.number seconds)
    (if o.trace then " untraced, then traced," else "")
    setups;
  let rec set_up i times =
    let store, s = Workload.setup w ~dir:(dir i) ~seed:o.seed in
    if i + 1 < setups then begin
      Db.close store.db;
      Workload.rm_rf store.dir;
      set_up (i + 1) (s :: times)
    end
    else (store, s :: times)
  in
  let store, setup_times = set_up 0 [] in
  let setup_s = median setup_times in
  let capacity = if full then 1 lsl 18 else 1 lsl 12 in
  if o.trace then Tracer.capacity := if full then 1 lsl 16 else 1 lsl 12;
  let plain = Workload.measure w store ~seconds ~traced:false ~capacity in
  Workload.check_bypass w plain;
  let e2e = e2e_metrics w store plain ~setup_s in
  let traced, layers =
    if o.trace then begin
      let q = Workload.measure w store ~seconds ~traced:true ~capacity in
      Workload.check_bypass w q;
      (Some q, layer_metrics store ~plain ~traced:q)
    end
    else (None, [])
  in
  Workload.verify_reopened w store;
  (* Probes run on the closed store's files. *)
  let probes =
    if o.trace then begin
      let probe_dir = store.dir ^ ".probe" in
      Workload.rm_rf probe_dir;
      mkdir_p probe_dir;
      let probes = probe_metrics w ~scale ~dir:store.dir ~probe_dir in
      Workload.rm_rf probe_dir;
      let path = Filename.concat o.workdir (Printf.sprintf "trace-%s.json" name) in
      Tracer.write_json path ~workload:name ~file_kinds:Io_env.kind_names;
      Printf.printf "# %s trace written to %s (every %d-th op traced)\n" name path
        (Tracer.sampling_k ());
      probes
    end
    else []
  in
  let layers = layers @ probes in
  Workload.rm_rf store.dir;
  let phases = plain :: Option.to_list traced in
  let attempted = List.fold_left (fun a (p : Workload.phase) -> a + p.attempted) 0 phases in
  let failed = List.fold_left (fun a (p : Workload.phase) -> a + p.failed) 0 phases in
  let violations = Atomic.get w.violations in
  let correct = violations = 0 in
  Array.iteri
    (fun k samples ->
      if Array.length samples > 0 then
        Printf.printf "# %s %s samples: %d\n" name Tracer.op_names.(k) (Array.length samples))
    plain.lat;
  List.iter (Printf.printf "# violation: %s\n") (List.rev !(w.first_violations));
  let show (n, v) = Printf.printf "%s %s %s %s\n" name n (Json.number v) (unit_of n) in
  List.iter show e2e;
  Printf.printf "%s error_rate %s ratio\n" name (Json.number (Samples.ratio failed attempted));
  List.iter show layers;
  let reported = if o.trace then layers else e2e in
  (* Report in catalogue order. *)
  let catalogue = if o.trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (n, u) -> (n, Json.Obj [ ("value", Json.Num (List.assoc n reported)); ("unit", Json.Str u) ]))
      catalogue
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1

(* ---------- several workloads, one child process per run ---------- *)

(* Python's statistics.quantiles(data, n=4) (the "exclusive" method). *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let run_child ?(echo = true) o ~name ~seed ~scale ~trace =
  mkdir_p o.workdir;
  let out_path = Filename.concat o.workdir (Printf.sprintf "%s-%d.out" name seed) in
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
      "--scale"; (match scale with Workload.Full -> "full" | Smoke -> "smoke");
      "--workdir"; o.workdir ]
    @ (match o.seconds with Some s -> [ "--seconds"; Json.number s ] | None -> [])
    @ if trace then [ "--trace" ] else []
  in
  let fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin fd Unix.stderr)
  in
  let _, status = Unix.waitpid [] pid in
  let lines =
    In_channel.with_open_text out_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove out_path;
  if echo then List.iter (fun l -> if l.[0] <> '{' then print_endline l) lines;
  let result =
    match List.rev lines with
    | last :: _ -> (try Some (Json.parse last) with Json.Parse_error _ -> None)
    | [] -> None
  in
  (status = Unix.WEXITED 0, result)

let result_metrics result =
  match Json.member "metrics" result with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (n, m) ->
          match Json.member "value" m with Some (Json.Num v) -> Some (n, v) | _ -> None)
        fields
  | _ -> []

let git_rev () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |] in
    let rev = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> rev | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let run_all o =
  let ok = ref true in
  let workloads =
    List.map
      (fun name ->
        let runs =
          List.init o.repeat (fun r ->
              let seed = o.seed + r in
              let exited, result = run_child o ~name ~seed ~scale:o.scale ~trace:o.trace in
              let result = Option.value result ~default:Json.Null in
              if (not exited) || Json.member "correct" result <> Some (Json.Bool true) then begin
                Printf.printf "# %s seed %d FAILED\n%!" name seed;
                ok := false
              end;
              (seed, result))
        in
        let catalogue = if o.trace then per_layer else end_to_end in
        let summary =
          List.map
            (fun (metric, unit) ->
              let values =
                List.filter_map (fun (_, r) -> List.assoc_opt metric (result_metrics r)) runs
              in
              let med = median values and q1, q3 = quartiles values in
              Printf.printf "%s %s median %s q1 %s q3 %s spread %.2f%% %s\n%!" name metric
                (Json.number med) (Json.number q1) (Json.number q3)
                (if med = 0. then 0. else 100. *. (q3 -. q1) /. Float.abs med)
                unit;
              ( metric,
                Json.Obj
                  [
                    ("median", Json.Num med);
                    ("q1", Json.Num q1);
                    ("q3", Json.Num q3);
                    ("unit", Json.Str unit);
                    ("values", Json.List (List.map (fun v -> Json.Num v) values));
                  ] ))
            catalogue
        in
        ( name,
          Json.Obj
            [
              ("runs", Json.List (List.map (fun (seed, r) -> Json.Obj [ ("seed", Json.Num (float_of_int seed)); ("result", r) ]) runs));
              ("summary", Json.Obj summary);
            ] ))
      (match o.workload with Some w -> [ w ] | None -> Workload.names)
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "clsm-e2e/1");
        ("git_rev", Json.Str (git_rev ()));
        ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("clients", Json.Num (float_of_int Workload.clients));
        ("seed", Json.Num (float_of_int o.seed));
        ("repeat", Json.Num (float_of_int o.repeat));
        ("scale", Json.Str (match o.scale with Full -> "full" | Smoke -> "smoke"));
        ("seconds", Json.Num (Option.value o.seconds ~default:(default_seconds o.scale)));
        ("trace", Json.Bool o.trace);
        ("workloads", Json.Obj workloads);
      ]
  in
  (match o.out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Printf.printf "# wrote %s\n" path
  | None -> ());
  if not !ok then exit 1

(* ---------- smoke check ---------- *)

let smoke_check o manifest_path =
  let fail msg =
    Printf.printf "smoke check FAILED: %s\n" msg;
    exit 1
  in
  let manifest = Json.read_file manifest_path in
  let entries key =
    match Json.member key manifest with
    | Some (Json.List items) ->
        List.sort compare
          (List.map
             (fun item ->
               match (Json.member "name" item, Json.member "unit" item) with
               | Some (Json.Str n), Some (Json.Str u) -> (n, u)
               | Some (Json.Str n), None -> (n, "")
               | _ -> fail (key ^ " entry without a name"))
             items)
    | _ -> fail ("BENCHMARK.json has no " ^ key)
  in
  let workloads = List.map fst (entries "workloads") in
  if workloads <> List.sort compare Workload.names then
    fail "BENCHMARK.json workloads differ from the benchmark's";
  if entries "end_to_end" <> List.sort compare end_to_end then
    fail "BENCHMARK.json end-to-end metrics or units differ from the benchmark's";
  if entries "per_layer" <> List.sort compare per_layer then
    fail "BENCHMARK.json per-layer metrics or units differ from the benchmark's";
  let expect ~trace name result =
    let have = result_metrics result in
    List.iter
      (fun (metric, _) ->
        if not (List.mem_assoc metric have) then
          fail (Printf.sprintf "%s: metric %s missing" name metric))
      (if trace then per_layer else end_to_end);
    if Json.member "correct" result <> Some (Json.Bool true) then
      fail (name ^ ": correctness checks failed");
    if Json.member "failed" result <> Some (Json.Num 0.) then fail (name ^ ": ops failed")
  in
  let o = { o with scale = Workload.Smoke } in
  let results =
    List.concat_map
      (fun name ->
        List.map
          (fun trace ->
            match run_child ~echo:false o ~name ~seed:o.seed ~scale:Smoke ~trace with
            | true, Some result ->
                expect ~trace name result;
                (Printf.sprintf "%s%s" name (if trace then "+trace" else ""), result)
            | _ -> fail (name ^ ": run did not exit cleanly with a result"))
          [ false; true ])
      workloads
  in
  (* The combined document must read back. *)
  let path = Filename.concat o.workdir "smoke.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string (Json.Obj results)));
  (match Json.read_file path with
  | Json.Obj r when List.length r = List.length results -> ()
  | _ -> fail "combined JSON does not read back");
  Sys.remove path;
  Printf.printf "smoke check passed: %d workloads, %d end-to-end and %d per-layer metrics\n"
    (List.length workloads) (List.length end_to_end) (List.length per_layer)

(* ---------- command line ---------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let scale = ref Workload.Full and trace = ref false and repeat = ref 1 in
  let out = ref None and workdir = ref ".clsm_bench" and smoke = ref None in
  let spec =
    [
      ( "--workload",
        Arg.Symbol (Workload.names, fun w -> workload := Some w),
        " run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "T seconds measured per phase");
      ( "--scale",
        Arg.Symbol ([ "smoke"; "full" ], fun s -> scale := if s = "smoke" then Workload.Smoke else Full),
        " data sizes (default full)" );
      ("--trace", Arg.Set trace, " add the traced phase and report per-layer metrics");
      ("--repeat", Arg.Set_int repeat, "N runs of each workload, seeds S..S+N-1");
      ("--out", Arg.String (fun s -> out := Some s), "FILE write all runs and summaries");
      ("--workdir", Arg.Set_string workdir, "DIR store directories and traces");
      ( "--smoke-check",
        Arg.String (fun s -> smoke := Some s),
        "BENCHMARK.json run every workload at smoke scale and check the result" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "clsm_bench.exe [--workload W] --seed S [--seconds T] [--scale smoke|full] [--trace] [--repeat N] [--out FILE]";
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      scale = !scale;
      trace = !trace;
      repeat = max 1 !repeat;
      out = !out;
      workdir = !workdir;
      smoke_check = !smoke;
    }
  in
  match (o.smoke_check, o.workload, o.out, o.repeat) with
  | Some manifest, _, _, _ -> smoke_check o manifest
  | None, Some name, None, 1 -> run_workload o name
  | None, _, _, _ -> run_all o
