(* Reproducible mixed-workload benchmark against the real store, emitting
   a stable machine-readable JSON schema ("clsm-bench/1") so per-PR runs
   accumulate into a perf trajectory (BENCH_compaction.json checked in,
   BENCH_smoke.json as a CI artifact).

   [mixed_workload]: multi-domain writers against an open store with a
   small memtable (so flushes and L0→L1 merges dominate); reports ops/s,
   op p50/p99, writer stall seconds and compaction seconds from the
   store's own counters. The merge itself is timed in isolation by
   [run_kernels]. *)

open Clsm_lsm
open Clsm_primitives
module Histogram = Clsm_util.Histogram
module Time_ns = Clsm_util.Time_ns
module Db = Clsm_core.Db
module Options = Clsm_core.Options
module Stats = Clsm_core.Stats

type scale = Smoke | Full

let scale_name = function Smoke -> "smoke" | Full -> "full"

(* ---------- tiny JSON writer (objects ordered, floats fixed) ---------- *)

module J = struct
  type t =
    | Int of int
    | Float of float
    | Bool of bool
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let rec emit b = function
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (Printf.sprintf "%.6f" f)
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit b x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf "%S:" k);
            emit b v)
          fields;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 4096 in
    emit b t;
    Buffer.contents b
end

(* ---------- scratch directories ---------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "clsm_bench_%d_%d" (Unix.getpid ()) !counter)
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
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ---------- L0→L1 merge inputs (timed by [run_kernels]) ---------- *)

let merge_cfg =
  {
    Lsm_config.default with
    Lsm_config.target_file_size = 1 lsl 20;
    block_size = 4096;
  }

(* [num_files] fully-overlapping L0 runs: file i holds every key with
   index ≡ i (mod num_files), so every output block draws from every
   input. *)
let build_l0_inputs ~dir ~num_files ~entries_per_file ~value_bytes =
  let alloc = Atomic.make 1 in
  let value i = String.init value_bytes (fun j -> Char.chr ((i + j) mod 26 + 97)) in
  List.init num_files (fun fi ->
      let number = Atomic.fetch_and_add alloc 1 in
      let b =
        Clsm_sstable.Table_builder.create ~block_size:merge_cfg.Lsm_config.block_size
          ~filter_key_of:Internal_key.user_key_of ~cmp:Internal_key.comparator
          ~path:(Table_file.table_path ~dir number)
          ()
      in
      for e = 0 to entries_per_file - 1 do
        let idx = (e * num_files) + fi in
        Clsm_sstable.Table_builder.add b
          ~key:(Internal_key.make (Printf.sprintf "key%010d" idx) (idx + 1))
          ~value:(Entry.encode (Entry.Value (value idx)))
      done;
      ignore (Clsm_sstable.Table_builder.finish b);
      Refcounted.create ~release:Table_file.release
        (Table_file.open_number ~dir number))

let drop_outputs outputs =
  List.iter
    (fun f ->
      Table_file.mark_obsolete (Refcounted.value f);
      Refcounted.retire f)
    outputs

(* ---------- mixed workload against the open store ---------- *)

let mixed_opts ~dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 256 * 1024;
    wal_enabled = false;
    maintenance_workers = 2;
    lsm =
      {
        Lsm_config.default with
        Lsm_config.level1_max_bytes = 2 * 1024 * 1024;
        target_file_size = 256 * 1024;
        l0_compaction_trigger = 4;
        l0_slowdown_trigger = 8;
        l0_stall_limit = 12;
      };
  }

(* Deterministic per-domain key stream (split-mix style) over a shared
   key space so compactions see real overlap. *)
let next_key state ~key_space =
  (* split-mix-style, constants truncated to OCaml's 63-bit ints *)
  state := !state + 0x1E3779B97F4A7C15;
  let z = !state in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int mod key_space

let run_mixed_phase ~scale =
  let writers = 2 in
  let ops_per_writer = match scale with Smoke -> 4_000 | Full -> 50_000 in
  let key_space = match scale with Smoke -> 10_000 | Full -> 100_000 in
  let value = String.make 256 'v' in
  let dir = fresh_dir () in
  let db = Db.open_store (mixed_opts ~dir) in
  let t0 = Time_ns.now_s () in
  let worker w =
    let h = Histogram.create () in
    let state = ref (w * 7919) in
    for i = 1 to ops_per_writer do
      let k = Printf.sprintf "user%08d" (next_key state ~key_space) in
      let op_start = Time_ns.now_ns () in
      if i mod 10 = 0 then ignore (Db.get db k)
      else Db.put db ~key:k ~value;
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
  let s = Db.stats db in
  Db.close db;
  rm_rf dir;
  let ops = writers * ops_per_writer in
  let p99_us = float_of_int (Histogram.percentile h 99.0) /. 1e3 in
  let stall_s = float_of_int s.Stats.stall_ns /. 1e9 in
  Printf.printf "  mixed workload: %.0f ops/s   op p99 %.0f us   stall %.2f s\n%!"
    (float_of_int ops /. wall) p99_us stall_s;
  J.Obj
    [
      ("writers", J.Int writers);
      ("ops", J.Int ops);
      ("wall_s", J.Float wall);
      ("ops_per_s", J.Float (float_of_int ops /. wall));
      ("op_p50_us", J.Float (float_of_int (Histogram.percentile h 50.0) /. 1e3));
      ("op_p99_us", J.Float p99_us);
      ("stall_s", J.Float stall_s);
      ("write_stalls", J.Int s.Stats.write_stalls);
      ( "slowdown_s",
        J.Float (float_of_int s.Stats.slowdown_delay_ns /. 1e9) );
      ("compaction_s", J.Float (float_of_int s.Stats.compaction_ns /. 1e9));
      ("compactions", J.Int s.Stats.compactions);
      ("compaction_moves", J.Int s.Stats.compaction_moves);
      ("flushes", J.Int s.Stats.flushes);
      ("bytes_flushed", J.Int s.Stats.bytes_flushed);
      ("bytes_compacted", J.Int s.Stats.bytes_compacted);
    ]

(* ---------- durability bench: per-write vs group vs async WAL ---------- *)

(* Four writer domains hammer puts through each WAL policy. The memtable
   is big enough that flush/compaction never interfere: the measured gap
   is purely the commit path. Per-write pays one fsync per put; group
   commit amortizes the fsync across every committer that boards while
   the previous leader is inside [w_fsync] (batch ceiling = concurrent
   writers, so the expected gain at 4 writers is bounded by 4x fewer
   fsyncs plus whatever mutex-convoy overhead per-write adds on top of
   the raw fsync); async acknowledges nothing and shows the ceiling. *)

let durability_opts ~dir ~wal_sync =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 1 lsl 24;
    wal_enabled = true;
    wal_sync;
    maintenance_workers = 1;
  }

let run_durability_cell_once ~writers ~name ~wal_sync ~n ~value =
  let dir = fresh_dir () in
  let db = Db.open_store (durability_opts ~dir ~wal_sync) in
  let t0 = Time_ns.now_s () in
  let worker w =
    let h = Histogram.create () in
    for i = 1 to n do
      let k = Printf.sprintf "w%dk%08d" w i in
      let op_start = Time_ns.now_ns () in
      Db.put db ~key:k ~value;
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
  let s = Db.stats db in
  Db.close db;
  rm_rf dir;
  let ops = writers * n in
  ( float_of_int ops /. wall,
    J.Obj
      [
        ("mode", J.Str name);
        ("writers", J.Int writers);
        ("ops", J.Int ops);
        ("wall_s", J.Float wall);
        ("ops_per_s", J.Float (float_of_int ops /. wall));
        ("put_p50_us", J.Float (float_of_int (Histogram.percentile h 50.0) /. 1e3));
        ("put_p99_us", J.Float (float_of_int (Histogram.percentile h 99.0) /. 1e3));
        ("fsync_rounds", J.Int s.Stats.wal_group_commits);
        ("records_acked", J.Int s.Stats.wal_group_records);
        ("fsyncs_saved", J.Int s.Stats.wal_fsyncs_saved);
        ( "mean_group_size",
          J.Float
            (if s.Stats.wal_group_commits = 0 then 0.0
             else
               float_of_int s.Stats.wal_group_records
               /. float_of_int s.Stats.wal_group_commits) );
        ("commit_wait_p50_us", J.Int (Stats.commit_wait_percentile_us s ~pct:50.0));
        ("commit_wait_p99_us", J.Int (Stats.commit_wait_percentile_us s ~pct:99.0));
      ] )

(* fsync latency on shared hosts wanders between runs; best-of-N per cell
   keeps the cross-mode ratios from comparing two different instants. *)
let run_durability_cell ~repeats ~writers ~name ~wal_sync ~n ~value =
  let best = ref None in
  for _ = 1 to repeats do
    let rate, row = run_durability_cell_once ~writers ~name ~wal_sync ~n ~value in
    match !best with
    | Some (r, _) when r >= rate -> ()
    | _ -> best := Some (rate, row)
  done;
  Option.get !best

let run_durability_phase ~scale =
  let ops_per_writer = match scale with Smoke -> 250 | Full -> 1_000 in
  let repeats = match scale with Smoke -> 1 | Full -> 3 in
  let value = String.make 128 'v' in
  let writer_counts = [ 1; 2; 4; 8; 16 ] in
  let modes =
    [
      ("per_write", `Per_write, 1);
      ("group", `Group Options.default_group_commit, 4);
      (* async acks nothing; more ops for a stable rate *)
      ("async", `Async, 20);
    ]
  in
  List.concat_map
    (fun writers ->
      List.map
        (fun (name, wal_sync, mult) ->
          let rate, row =
            run_durability_cell ~repeats ~writers ~name ~wal_sync
              ~n:(ops_per_writer * mult) ~value
          in
          Printf.printf "  %-10s %d writers %10.0f ops/s\n%!" name writers rate;
          (name, writers, rate, row))
        modes)
    writer_counts

let run_durability ~scale ~out =
  Printf.printf "clsm durability bench (%s scale, %d core(s))\n%!"
    (scale_name scale)
    (Domain.recommended_domain_count ());
  let rows = run_durability_phase ~scale in
  let rate name writers =
    List.find_map
      (fun (n, w, r, _) -> if n = name && w = writers then Some r else None)
      rows
    |> Option.get
  in
  let speedups =
    List.filter_map
      (fun (n, w, _, _) ->
        if n = "group" then
          let s = rate "group" w /. rate "per_write" w in
          Printf.printf "  group vs per-write at %d writers: %.2fx\n%!" w s;
          Some (string_of_int w, J.Float s)
        else None)
      rows
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "clsm-bench/1");
        ("bench", J.Str "durability");
        ("scale", J.Str (scale_name scale));
        ( "host",
          J.Obj
            [ ("recommended_domains", J.Int (Domain.recommended_domain_count ())) ]
        );
        ("modes", J.List (List.map (fun (_, _, _, row) -> row) rows));
        ("group_speedup_vs_per_write", J.Obj speedups);
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* ---------- read bench: reader-domain scaling over a resident set ---------- *)

(* One store, preloaded and fully compacted, working set sized to the
   block cache: every cell then measures the read path itself (lock-free
   cache hits, merge iterators, readahead) rather than disk. Cells are
   readers × distribution × operation; the store is shared across cells
   because reads don't perturb it. *)

module Key_dist = Clsm_workload.Key_dist
module Rng = Clsm_workload.Rng
module Cache = Clsm_sstable.Cache

let read_opts ~dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 1 lsl 22;
    wal_enabled = false;
    cache_bytes = 1 lsl 26;
    maintenance_workers = 1;
  }

type read_op = Point | Scan of int

let run_read_cell_once db ~readers ~dist ~op ~ops_per_reader ~seed0 =
  let c0 = Db.cache_stats db in
  let t0 = Time_ns.now_s () in
  let worker r =
    let rng = Rng.create (seed0 + (r * 7919) + 17) in
    let h = Histogram.create () in
    for _ = 1 to ops_per_reader do
      let k = Key_dist.next_key dist rng in
      let op_start = Time_ns.now_ns () in
      (match op with
      | Point -> ignore (Db.get db k)
      | Scan limit -> ignore (Db.range ~start:k ~limit db));
      Histogram.record h (Time_ns.now_ns () - op_start)
    done;
    h
  in
  let domains =
    List.init (readers - 1) (fun r -> Domain.spawn (fun () -> worker (r + 1)))
  in
  let h0 = worker 0 in
  let hists = h0 :: List.map Domain.join domains in
  let wall = Time_ns.now_s () -. t0 in
  let c1 = Db.cache_stats db in
  let h = Histogram.merge hists in
  let ops = readers * ops_per_reader in
  let hits = c1.Cache.hits - c0.Cache.hits in
  let misses = c1.Cache.misses - c0.Cache.misses in
  ( float_of_int ops /. wall,
    J.Obj
      [
        ("readers", J.Int readers);
        ("ops", J.Int ops);
        ("wall_s", J.Float wall);
        ("ops_per_s", J.Float (float_of_int ops /. wall));
        ("op_p50_us", J.Float (float_of_int (Histogram.percentile h 50.0) /. 1e3));
        ("op_p99_us", J.Float (float_of_int (Histogram.percentile h 99.0) /. 1e3));
        ("cache_hits", J.Int hits);
        ("cache_misses", J.Int misses);
        ( "cache_hit_rate",
          J.Float
            (if hits + misses = 0 then 1.0
             else float_of_int hits /. float_of_int (hits + misses)) );
        ("readaheads", J.Int (c1.Cache.readaheads - c0.Cache.readaheads));
        ( "readahead_blocks",
          J.Int (c1.Cache.readahead_blocks - c0.Cache.readahead_blocks) );
        ( "singleflight_waits",
          J.Int (c1.Cache.singleflight_waits - c0.Cache.singleflight_waits) );
      ] )

(* Reader throughput on a shared host wanders between runs; best-of-N per
   cell keeps the scaling curve from comparing two different instants. *)
let run_read_cell db ~repeats ~readers ~dist ~op ~ops_per_reader ~seed0 =
  let best = ref None in
  for rep = 1 to repeats do
    let rate, row =
      run_read_cell_once db ~readers ~dist ~op ~ops_per_reader
        ~seed0:(seed0 + (rep * 104729))
    in
    match !best with
    | Some (r, _) when r >= rate -> ()
    | _ -> best := Some (rate, row)
  done;
  Option.get !best

let run_read ~scale ~out =
  Printf.printf "clsm read bench (%s scale, %d core(s))\n%!" (scale_name scale)
    (Domain.recommended_domain_count ());
  let keys = match scale with Smoke -> 5_000 | Full -> 100_000 in
  let ops_point = match scale with Smoke -> 2_000 | Full -> 20_000 in
  let ops_scan = match scale with Smoke -> 200 | Full -> 2_000 in
  let repeats = match scale with Smoke -> 1 | Full -> 3 in
  let reader_counts =
    match scale with Smoke -> [ 1; 4 ] | Full -> [ 1; 2; 4; 8; 16 ]
  in
  let scan_limit = 50 in
  let value = String.make 256 'v' in
  let dir = fresh_dir () in
  let db = Db.open_store (read_opts ~dir) in
  for i = 0 to keys - 1 do
    Db.put db ~key:(Key_dist.key_of_index i) ~value
  done;
  Db.compact_now db;
  (* Warm pass: fault every data block into the cache so cells measure a
     resident working set, not first-touch IO. *)
  let resident = Db.fold (fun _ _ n -> n + 1) db 0 in
  Printf.printf "  preloaded %d keys (%d visible), cache warmed\n%!" keys
    resident;
  let dists =
    [ ("uniform", Key_dist.uniform keys); ("zipfian", Key_dist.zipf keys) ]
  in
  let ops =
    [ ("point", Point, ops_point); ("scan", Scan scan_limit, ops_scan) ]
  in
  let cells =
    List.concat_map
      (fun readers ->
        List.concat_map
          (fun (dist_name, dist) ->
            List.map
              (fun (op_name, op, ops_per_reader) ->
                let rate, row =
                  run_read_cell db ~repeats ~readers ~dist ~op ~ops_per_reader
                    ~seed0:
                      ((readers * 131) + (String.length dist_name * 17)
                     + ops_per_reader)
                in
                Printf.printf "  %-7s %-8s %2d readers %12.0f ops/s\n%!"
                  op_name dist_name readers rate;
                let row =
                  match row with
                  | J.Obj fields ->
                      J.Obj
                        (("dist", J.Str dist_name)
                        :: ("op", J.Str op_name)
                        :: fields)
                  | other -> other
                in
                (op_name, dist_name, readers, rate, row))
              ops)
          dists)
      reader_counts
  in
  let rate op_name dist_name readers =
    List.find_map
      (fun (o, d, w, r, _) ->
        if o = op_name && d = dist_name && w = readers then Some r else None)
      cells
  in
  let scaling =
    List.filter_map
      (fun readers ->
        match
          (rate "point" "uniform" readers, rate "point" "uniform" 1)
        with
        | Some r, Some r1 when readers > 1 ->
            let s = r /. r1 in
            Printf.printf "  point/uniform scaling at %d readers: %.2fx\n%!"
              readers s;
            Some (string_of_int readers, J.Float s)
        | _ -> None)
      reader_counts
  in
  let s = Db.stats db in
  let c = Db.cache_stats db in
  let store =
    J.Obj
      [
        ("gets", J.Int s.Stats.gets);
        ("get_p50_us", J.Int (Stats.get_percentile_us s ~pct:50.0));
        ("get_p99_us", J.Int (Stats.get_percentile_us s ~pct:99.0));
        ("cache_hits", J.Int c.Cache.hits);
        ("cache_misses", J.Int c.Cache.misses);
        ("cache_weight", J.Int c.Cache.weight);
        ("cache_pins", J.Int c.Cache.pins);
        ("readaheads", J.Int c.Cache.readaheads);
        ("readahead_blocks", J.Int c.Cache.readahead_blocks);
      ]
  in
  Db.close db;
  rm_rf dir;
  let doc =
    J.Obj
      [
        ("schema", J.Str "clsm-bench/1");
        ("bench", J.Str "read");
        ("scale", J.Str (scale_name scale));
        ( "host",
          J.Obj
            [ ("recommended_domains", J.Int (Domain.recommended_domain_count ())) ]
        );
        ("keys", J.Int keys);
        ("value_bytes", J.Int (String.length value));
        ("scan_limit", J.Int scan_limit);
        ("cells", J.List (List.map (fun (_, _, _, _, row) -> row) cells));
        ("point_uniform_scaling_vs_1_reader", J.Obj scaling);
        ("store", store);
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* ---------- kernels: per-block byte loops, cached reads, the clock ---------- *)

(* Every table block passes through [Env.rf_read] (mmap copy-out) and
   [Crc32c.sub] on the way in, and through [Crc32c] on the way out; an
   L0→L1 merge strings both together with block decode, merge and
   encode. Each kernel runs [samples] timed batches and reports MB/s of
   the median and best batch; the cached reads and the clock calls
   report ns per call instead (see [ns_row]). *)

let block_bytes = 4096

let time_batches ~samples ~bytes f =
  let rates =
    List.init samples (fun _ ->
        let t0 = Time_ns.now_s () in
        f ();
        float_of_int bytes /. (Time_ns.now_s () -. t0) /. 1e6)
    |> List.sort Float.compare
  in
  (List.nth rates (samples / 2), List.nth rates (samples - 1))

let kernel_row name ~bytes_per_sample (median, best) =
  Printf.printf "  %-10s median %8.1f MB/s   best %8.1f MB/s\n%!" name median
    best;
  J.Obj
    [
      ("kernel", J.Str name);
      ("bytes_per_sample", J.Int bytes_per_sample);
      ("median_mb_per_s", J.Float median);
      ("best_mb_per_s", J.Float best);
    ]

(* Words allocated on the major heap directly, not promoted: where an
   allocation above the minor heap's size limit (a 4 KB block) lands. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* One batch of [ops] calls [call i]: its ns, and the minor and direct
   major words allocated between its two readings of the counters. *)
let batch ~ops call =
  let w0 = Gc.minor_words () and m0 = direct_major_words () in
  let t0 = Time_ns.now_ns () in
  for i = 0 to ops - 1 do
    call i
  done;
  let ns = Time_ns.now_ns () - t0 in
  (ns, Gc.minor_words () -. w0, direct_major_words () -. m0)

(* The minor words the counter readings themselves box: an empty batch
   measures them, and each row subtracts them, so a call that allocates
   nothing reports 0 words. *)
let bracket_words =
  let _, words, _ = batch ~ops:0 ignore in
  words

(* [samples] timed batches of [ops] calls [call i], i = 0 .. ops - 1,
   after one warm-up batch of [warmup] calls: median and best ns per
   call, and the minor and direct major words per call of the median
   batch. *)
let ns_row ~samples ~ops ?(warmup = ops) name call =
  for i = 0 to warmup - 1 do
    call i
  done;
  let runs =
    List.init samples (fun _ ->
        let ns, words, major = batch ~ops call in
        let per_op x = x /. float_of_int ops in
        (per_op (float_of_int ns), per_op (words -. bracket_words), per_op major))
    |> List.sort compare
  in
  let median_ns, words, major = List.nth runs (samples / 2) in
  let best_ns, _, _ = List.hd runs in
  Printf.printf
    "  %-30s median %8.0f ns/op   best %8.0f ns/op   %6.1f words/op   %6.1f major/op\n%!"
    name median_ns best_ns words major;
  J.Obj
    [
      ("kernel", J.Str name);
      ("ops_per_sample", J.Int ops);
      ("median_ns_per_op", J.Float median_ns);
      ("best_ns_per_op", J.Float best_ns);
      ("minor_words_per_op", J.Float words);
      ("major_words_per_op", J.Float major);
    ]

(* A [Table.find_last_le] that misses the block cache, in ns and minor
   and major words: each probe is the last key of the next block along,
   in a one-shard cache with room for the table's reservation and one
   block, so every lookup reads, verifies and parses its block, searches
   it, and evicts the block before. *)
let block_miss_row ~samples ~ops path =
  let module Table = Clsm_sstable.Table in
  let module Cache = Clsm_sstable.Cache in
  let open_with ~capacity =
    let cache =
      Cache.create ~shards:1 ~capacity ~weight:Clsm_sstable.Block.size_bytes ()
    in
    (cache, Table.open_file ~cache ~cmp:Internal_key.comparator path)
  in
  let reserved =
    let cache, t = open_with ~capacity:(64 lsl 20) in
    let w = (Cache.stats cache).Cache.weight in
    Table.close t;
    w
  in
  let cache, t = open_with ~capacity:(reserved + (6 * 1024)) in
  (* Full blocks only: a short last block fits beside another and could
     stay resident. *)
  let lasts =
    Table.index_anchors t
    |> List.filter (fun (_, size) -> size >= block_bytes)
    |> List.map fst |> Array.of_list
  in
  let n = Array.length lasts in
  let misses0 = (Cache.stats cache).Cache.misses in
  let row =
    ns_row ~samples ~ops ~warmup:n "point_lookup.block_miss" (fun i ->
        ignore (Sys.opaque_identity (Table.find_last_le t lasts.(i mod n)) : _ option))
  in
  let misses = (Cache.stats cache).Cache.misses - misses0 in
  if misses < n + (samples * ops) then
    failwith "point_lookup.block_miss: a lookup hit the cache";
  Table.close t;
  row

(* A store in a fresh directory holding [key i] -> [value] for
   i = 0 .. keys - 1, compacted and warmed by a full fold. *)
let resident_store ~cache_bytes ~keys ~key ~value =
  let dir = fresh_dir () in
  let db =
    Db.open_store
      { (Options.default ~dir) with Options.cache_bytes; scrub_interval = 0.0 }
  in
  let chunk = 1000 in
  for c = 0 to (keys / chunk) - 1 do
    Db.write_batch db
      (List.init chunk (fun j -> Db.Batch_put (key ((c * chunk) + j), value)))
  done;
  Db.compact_now db;
  ignore (Db.fold (fun _ _ n -> n + 1) db 0 : int);
  (dir, db)

(* Point lookups and scans served wholly from the block cache, in the
   shape of the e2e get_resident workload: 8 B keys and 256 B values,
   preloaded, compacted and warmed by a full fold. Times a cached
   [Table.find_last_le] on the store's largest table and its two layers
   alone (the index search, and [Block.Iter.seek_le] in one cached 4 KB
   block of the table's entries), and [Db.get], a
   one-row [Db.range] (the scan's seek: an iterator, one seek per
   component, one row) and a 50-row [Db.range] (the seek plus 49 rows)
   on the store, and counts the minor-heap words each call allocates: on
   OCaml 5 every minor collection stops every domain. *)
let cached_read_rows ~scale ~samples =
  let module Table = Clsm_sstable.Table in
  let keys = match scale with Smoke -> 10_000 | Full -> 100_000 in
  let ops = match scale with Smoke -> 20_000 | Full -> 200_000 in
  let key i = Clsm_workload.Key_dist.key_of_index ~key_len:8 i in
  let dir, db =
    resident_store ~cache_bytes:(64 lsl 20) ~keys ~key
      ~value:(String.make 256 'v')
  in
  let rng = Random.State.make [| 7 |] in
  let probes = Array.init 4096 (fun _ -> key (Random.State.int rng keys)) in
  let mask = Array.length probes - 1 in
  let row name call =
    ns_row ~samples ~ops ~warmup:(Array.length probes) name (fun i ->
        call (Array.unsafe_get probes (i land mask)))
  in
  let db_row =
    row "point_lookup.db_get" (fun k ->
        ignore (Sys.opaque_identity (Db.get db k) : string option))
  in
  let scan_row name limit =
    ns_row ~samples ~ops:(ops / 20) ~warmup:(Array.length probes) name
      (fun i ->
        ignore
          (Sys.opaque_identity
             (Db.range ~start:(Array.unsafe_get probes (i land mask)) ~limit db)
            : _ list))
  in
  let seek_row = scan_row "scan.seek" 1 in
  let range_row = scan_row "scan.range50" 50 in
  Db.close db;
  let largest =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".sst")
    |> List.map (fun f -> Filename.concat dir f)
    |> List.sort (fun a b ->
           compare (Unix.stat b).Unix.st_size (Unix.stat a).Unix.st_size)
    |> List.hd
  in
  let cache =
    Clsm_sstable.Cache.create ~capacity:(64 lsl 20)
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let table = Table.open_file ~cache ~cmp:Internal_key.comparator largest in
  let in_table =
    Array.of_list
      (Table.fold (fun k _ acc -> Internal_key.probe (Internal_key.user_key_of k) :: acc)
         table [])
  in
  Array.iteri
    (fun i _ -> probes.(i) <- in_table.(Random.State.int rng (Array.length in_table)))
    probes;
  let table_row =
    row "point_lookup.find_last_le" (fun k ->
        ignore (Sys.opaque_identity (Table.find_last_le table k) : _ option))
  in
  let index_row =
    row "point_lookup.index_seek" (fun k ->
        ignore (Sys.opaque_identity (Table.index_seek table k) : int))
  in
  (* The first 4 KB block of the table's entries, cut as [Table_builder]
     cuts it (a restart at every entry), probed at its own keys. *)
  let block =
    let b = Clsm_sstable.Block_builder.create ~restart_interval:1 () in
    let rec fill = function
      | (k, v) :: rest when Clsm_sstable.Block_builder.estimated_size b < 4096 ->
          Clsm_sstable.Block_builder.add b ~key:k ~value:v;
          fill rest
      | _ -> ()
    in
    fill (Table.to_list table);
    Clsm_sstable.Block.parse Internal_key.comparator
      (Clsm_sstable.Block_builder.finish b)
  in
  let in_block =
    Array.of_list
      (Clsm_sstable.Block.Iter.fold
         (fun k _ acc -> Internal_key.probe (Internal_key.user_key_of k) :: acc)
         block [])
  in
  Array.iteri
    (fun i _ -> probes.(i) <- in_block.(Random.State.int rng (Array.length in_block)))
    probes;
  let block_it = Clsm_sstable.Block.Iter.make block in
  let block_row =
    row "point_lookup.block_seek" (fun k ->
        Clsm_sstable.Block.Iter.seek_le block_it k;
        ignore (Sys.opaque_identity (Clsm_sstable.Block.Iter.valid block_it) : bool))
  in
  Table.close table;
  let miss_row = block_miss_row ~samples ~ops largest in
  rm_rf dir;
  [ table_row; index_row; block_row; miss_row; db_row; seek_row; range_row ]

(* [Internal_key.compare_encoded] in ns and minor words per call, on
   neighbouring keys of a sorted run: user keys of [key_len] bytes as
   the workloads generate them (zero-padded indices, so 40 B keys share
   a 35-byte prefix), one version each. A comparison must allocate
   nothing: {!run_kernels} fails if a row reports a word. *)
let key_compare_rows ~scale ~samples =
  let ops = match scale with Smoke -> 200_000 | Full -> 2_000_000 in
  let row key_len =
    let keys =
      Array.init 4096 (fun i ->
          Internal_key.make (Clsm_workload.Key_dist.key_of_index ~key_len i) 1)
    in
    let mask = Array.length keys - 2 in
    ns_row ~samples ~ops (Printf.sprintf "key_compare.internal.k%d" key_len)
      (fun i ->
        let j = i land mask in
        ignore
          (Sys.opaque_identity
             (Internal_key.compare_encoded (Array.unsafe_get keys j)
                (Array.unsafe_get keys (j + 1)))
            : int))
  in
  let k8 = row 8 in
  [ k8; row 40 ]

let minor_words_of = function
  | J.Obj fields -> (
      match List.assoc_opt "minor_words_per_op" fields with
      | Some (J.Float w) -> w
      | Some _ | None -> 0.0)
  | _ -> 0.0

let kernel_of = function
  | J.Obj fields -> (
      match List.assoc_opt "kernel" fields with Some (J.Str k) -> k | Some _ | None -> "")
  | _ -> ""

(* [Db.get] served wholly from the block cache in the shape of the e2e
   production_mix workload: 40 B keys, 1 KB values, preloaded, compacted
   and warmed by a full fold, in a cache that holds them all. *)
let long_key_get_row ~scale ~samples =
  let keys = match scale with Smoke -> 5_000 | Full -> 40_000 in
  let ops = match scale with Smoke -> 20_000 | Full -> 200_000 in
  let key i = Clsm_workload.Key_dist.key_of_index ~key_len:40 i in
  let dir, db =
    resident_store ~cache_bytes:(128 lsl 20) ~keys ~key
      ~value:(String.make 1024 'v')
  in
  let rng = Random.State.make [| 7 |] in
  let probes = Array.init 4096 (fun _ -> key (Random.State.int rng keys)) in
  let mask = Array.length probes - 1 in
  let row =
    ns_row ~samples ~ops ~warmup:(Array.length probes) "point_lookup.db_get.k40"
      (fun i ->
        ignore
          (Sys.opaque_identity (Db.get db (Array.unsafe_get probes (i land mask)))
            : string option))
  in
  Db.close db;
  rm_rf dir;
  row

(* The paper's timestamp protocol on an otherwise idle clock, in ns per
   call: getSnap's choice and fence of a snapshot timestamp (Algorithm
   2, both modes), an RMW's getTS + in-flight fence + release, and a
   blind put's getTS + release. A second domain writes once first, so
   the Active sets' scans cover two homes, as in a two-client store. *)
let clock_rows ~scale ~samples =
  let module Clock = Clsm_core.Clock in
  let ops = match scale with Smoke -> 20_000 | Full -> 200_000 in
  let clock = Clock.create () in
  let put_ts () =
    let _, h, hp = Clock.get_put_ts clock in
    Clock.end_put clock ~active:h ~put:hp
  in
  Domain.join (Domain.spawn put_ts);
  let row name call = ns_row ~samples ~ops name (fun _ -> call ()) in
  let snap mode () = ignore (Sys.opaque_identity (Clock.snap_ts clock ~mode)) in
  let serializable = row "clock.snap_ts.serializable" (snap Clock.Serializable) in
  let linearizable = row "clock.snap_ts.linearizable" (snap Clock.Linearizable) in
  let rmw =
    row "clock.rmw_fence" (fun () ->
        let ts, h = Clock.get_ts clock in
        Clock.rmw_fence clock ~ts;
        Clock.end_op clock h)
  in
  [ serializable; linearizable; rmw; row "clock.put_ts" put_ts ]

(* [Merge_iter]'s two engines at 2, 4, 8 and 16 sources
   ([Merge_iter.merge] takes the linear scan up to 4 and the heap above):
   ns and minor words per merged entry, over [Iter.of_array] sources
   that interleave one run of internal keys, as overlapping L0 tables
   do. Each call steps the merge once; an exhausted merge is rebuilt, so
   building it is amortized over its entries. *)
let merge_iter_rows ~scale ~samples =
  let entries = match scale with Smoke -> 4_096 | Full -> 65_536 in
  let ops = match scale with Smoke -> 50_000 | Full -> 500_000 in
  let cmp = Internal_key.compare_encoded in
  let keys =
    Array.init entries (fun i ->
        Internal_key.make (Clsm_workload.Key_dist.key_of_index ~key_len:8 i) 1)
  in
  Array.sort cmp keys;
  let row engine name k =
    let sources =
      Array.init k (fun j ->
          Array.init
            ((entries - j + k - 1) / k)
            (fun i -> (keys.((i * k) + j), "v")))
    in
    let fresh () =
      let it = engine ~cmp (Array.to_list (Array.map Iter.of_array sources)) in
      it.Iter.seek_to_first ();
      it
    in
    let it = ref (fresh ()) in
    ns_row ~samples ~ops (Printf.sprintf "merge_iter.%s.k%d" name k) (fun _ ->
        if !it.Iter.valid () then begin
          ignore (Sys.opaque_identity (!it.Iter.key ()) : string);
          !it.Iter.next ()
        end
        else it := fresh ())
  in
  List.concat_map
    (fun k ->
      let linear = row Merge_iter.merge_linear "linear" k in
      [ linear; row Merge_iter.merge_heap "heap" k ])
    [ 2; 4; 8; 16 ]

let run_kernels ~scale ~out =
  Printf.printf "clsm kernel bench (%s scale, %d core(s), crc32c %s)\n%!"
    (scale_name scale)
    (Domain.recommended_domain_count ())
    Clsm_util.Crc32c.implementation;
  let blocks = match scale with Smoke -> 1_000 | Full -> 20_000 in
  let samples = match scale with Smoke -> 3 | Full -> 9 in
  let bytes = blocks * block_bytes in
  let rng = Random.State.make [| 42 |] in
  let block =
    String.init block_bytes (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let crc =
    time_batches ~samples ~bytes (fun () ->
        for _ = 1 to blocks do
          ignore
            (Sys.opaque_identity
               (Clsm_util.Crc32c.sub block ~pos:0 ~len:block_bytes))
        done)
  in
  let crc_row = kernel_row "crc32c" ~bytes_per_sample:bytes crc in
  (* 4 KB reads strided by block + trailer through a 1 MB file, as table
     blocks sit on disk. *)
  let dir = fresh_dir () in
  let path = Filename.concat dir "kernel.dat" in
  let file_bytes = 1 lsl 20 in
  Out_channel.with_open_bin path (fun oc ->
      for _ = 1 to file_bytes / block_bytes do
        Out_channel.output_string oc block
      done);
  let rf = Clsm_env.Env.unix.Clsm_env.Env.open_random path in
  let stride = block_bytes + Clsm_sstable.Table_format.block_trailer_length in
  let read =
    time_batches ~samples ~bytes (fun () ->
        let pos = ref 0 in
        for _ = 1 to blocks do
          if !pos + block_bytes > file_bytes then pos := 0;
          ignore
            (Sys.opaque_identity
               (rf.Clsm_env.Env.rf_read ~pos:!pos ~len:block_bytes));
          pos := !pos + stride
        done)
  in
  rf.Clsm_env.Env.rf_close ();
  let read_row = kernel_row "rf_read" ~bytes_per_sample:bytes read in
  (* One L0→L1 merge of 4 fully-overlapping runs, as the store's
     maintenance runs it. *)
  let num_files = 4 in
  let entries_per_file = match scale with Smoke -> 2_000 | Full -> 15_000 in
  let inputs =
    build_l0_inputs ~dir ~num_files ~entries_per_file ~value_bytes:256
  in
  let input_bytes =
    List.fold_left (fun a f -> a + (Refcounted.value f).Table_file.size) 0 inputs
  in
  let task =
    {
      Compaction.src_level = 0;
      inputs_lo = inputs;
      inputs_hi = [];
      target_level = 1;
      drop_tombstones = true;
    }
  in
  let alloc = Atomic.make 100_000 in
  let merge =
    time_batches ~samples ~bytes:input_bytes (fun () ->
        drop_outputs
          (Compaction.run ~cfg:merge_cfg ~dir
             ~alloc_number:(fun () -> Atomic.fetch_and_add alloc 1)
             ~snapshots:[] task))
  in
  List.iter
    (fun f ->
      Table_file.mark_obsolete (Refcounted.value f);
      Refcounted.retire f)
    inputs;
  rm_rf dir;
  let merge_row = kernel_row "merge" ~bytes_per_sample:input_bytes merge in
  let read_rows = cached_read_rows ~scale ~samples in
  let long_key_row = long_key_get_row ~scale ~samples in
  let compare_rows = key_compare_rows ~scale ~samples in
  let clock_rows = clock_rows ~scale ~samples in
  let merge_iter_rows = merge_iter_rows ~scale ~samples in
  let doc =
    J.Obj
      [
        ("schema", J.Str "clsm-bench/1");
        ("bench", J.Str "kernels");
        ("scale", J.Str (scale_name scale));
        ( "host",
          J.Obj
            [ ("recommended_domains", J.Int (Domain.recommended_domain_count ())) ]
        );
        ("crc32c", J.Str Clsm_util.Crc32c.implementation);
        ("block_bytes", J.Int block_bytes);
        ("samples", J.Int samples);
        ("merge_input_files", J.Int num_files);
        ( "kernels",
          J.List
            ([ crc_row; read_row; merge_row ]
            @ read_rows @ (long_key_row :: compare_rows) @ clock_rows
            @ merge_iter_rows) );
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  (* A key comparison, and a search of a cached block, allocate
     nothing. *)
  let must_not_allocate =
    compare_rows
    @ List.filter (fun r -> kernel_of r = "point_lookup.block_seek") read_rows
  in
  match List.filter (fun r -> minor_words_of r > 0.0) must_not_allocate with
  | [] -> ()
  | rows ->
      prerr_endline (String.concat ", " (List.map kernel_of rows) ^ ": allocates");
      exit 1

(* ---------- entry point ---------- *)

let run ~scale ~out =
  Printf.printf "clsm compaction bench (%s scale, %d core(s))\n%!"
    (scale_name scale)
    (Domain.recommended_domain_count ());
  let mixed_row = run_mixed_phase ~scale in
  let doc =
    J.Obj
      [
        ("schema", J.Str "clsm-bench/1");
        ("bench", J.Str "compaction");
        ("scale", J.Str (scale_name scale));
        ( "host",
          J.Obj
            [ ("recommended_domains", J.Int (Domain.recommended_domain_count ())) ]
        );
        ("mixed_workload", J.List [ mixed_row ]);
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out
