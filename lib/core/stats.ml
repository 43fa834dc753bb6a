(* Per-level compaction counters are a fixed-size array indexed by source
   level; 16 comfortably covers any [Lsm_config.num_levels] in use and
   keeps the counters allocation-free on the hot path. *)
let max_levels = 16

module Histogram = Clsm_util.Histogram

(* Installs are counted per edit kind, indexed by [kind_index]. *)
type install_kind = [ `Flush | `Compaction | `Quarantine | `Readmit | `Commit ]

let install_kinds = [| "flush"; "compaction"; "quarantine"; "readmit"; "commit" |]

let kind_index = function
  | `Flush -> 0
  | `Compaction -> 1
  | `Quarantine -> 2
  | `Readmit -> 3
  | `Commit -> 4

type t = {
  puts : int Atomic.t;
  gets : int Atomic.t;
  deletes : int Atomic.t;
  rmws : int Atomic.t;
  rmw_conflicts : int Atomic.t;
  snapshots_taken : int Atomic.t;
  scans : int Atomic.t;
  memtable_rotations : int Atomic.t;
  flushes : int Atomic.t;
  compactions : int Atomic.t;
  compactions_per_level : int Atomic.t array; (* by source level *)
  compaction_ns : int Atomic.t;
  bytes_flushed : int Atomic.t;
  bytes_compacted : int Atomic.t;
  compaction_moves : int Atomic.t;
  bytes_moved : int Atomic.t;
  write_stalls : int Atomic.t;
  stall_ns : int Atomic.t;
  write_slowdowns : int Atomic.t;
  slowdown_delay_ns : int Atomic.t;
  maintenance_wakeups : int Atomic.t;
  scrubbed_blocks : int Atomic.t;
  corruptions_detected : int Atomic.t;
  quarantined_tables : int Atomic.t;
  io_retries : int Atomic.t;
  auto_repairs : int Atomic.t;
  wal_group_commits : int Atomic.t;
  wal_group_records : int Atomic.t;
  wal_fsyncs_saved : int Atomic.t;
  wal_windows_boarded : int Atomic.t;
  wal_windows_expired : int Atomic.t;
  commit_wait : Histogram.t;
  get_latency : Histogram.t;
  installs : int Atomic.t array; (* by install kind *)
  install_ns : int Atomic.t array; (* by install kind *)
  manifest_bytes_last : int Atomic.t;
}

type snapshot = {
  puts : int;
  gets : int;
  deletes : int;
  rmws : int;
  rmw_conflicts : int;
  snapshots_taken : int;
  scans : int;
  memtable_rotations : int;
  flushes : int;
  compactions : int;
  compactions_per_level : int array;
  compaction_ns : int;
  bytes_flushed : int;
  bytes_compacted : int;
  compaction_moves : int;
  bytes_moved : int;
  write_stalls : int;
  stall_ns : int;
  write_slowdowns : int;
  slowdown_delay_ns : int;
  maintenance_wakeups : int;
  scrubbed_blocks : int;
  corruptions_detected : int;
  quarantined_tables : int;
  io_retries : int;
  auto_repairs : int;
  wal_group_commits : int;
  wal_group_records : int;
  wal_fsyncs_saved : int;
  wal_windows_boarded : int;
  wal_windows_expired : int;
  commit_waits : int;
  commit_wait_ns : int;
  commit_wait_hist : int array;
  get_ns : int;
  get_hist : int array;
  installs : int array;
  install_ns : int array;
  manifest_bytes_last : int;
}

let create () : t =
  {
    puts = Atomic.make 0;
    gets = Atomic.make 0;
    deletes = Atomic.make 0;
    rmws = Atomic.make 0;
    rmw_conflicts = Atomic.make 0;
    snapshots_taken = Atomic.make 0;
    scans = Atomic.make 0;
    memtable_rotations = Atomic.make 0;
    flushes = Atomic.make 0;
    compactions = Atomic.make 0;
    compactions_per_level = Array.init max_levels (fun _ -> Atomic.make 0);
    compaction_ns = Atomic.make 0;
    bytes_flushed = Atomic.make 0;
    bytes_compacted = Atomic.make 0;
    compaction_moves = Atomic.make 0;
    bytes_moved = Atomic.make 0;
    write_stalls = Atomic.make 0;
    stall_ns = Atomic.make 0;
    write_slowdowns = Atomic.make 0;
    slowdown_delay_ns = Atomic.make 0;
    maintenance_wakeups = Atomic.make 0;
    scrubbed_blocks = Atomic.make 0;
    corruptions_detected = Atomic.make 0;
    quarantined_tables = Atomic.make 0;
    io_retries = Atomic.make 0;
    auto_repairs = Atomic.make 0;
    wal_group_commits = Atomic.make 0;
    wal_group_records = Atomic.make 0;
    wal_fsyncs_saved = Atomic.make 0;
    wal_windows_boarded = Atomic.make 0;
    wal_windows_expired = Atomic.make 0;
    commit_wait = Histogram.create ();
    get_latency = Histogram.create ();
    installs = Array.init (Array.length install_kinds) (fun _ -> Atomic.make 0);
    install_ns = Array.init (Array.length install_kinds) (fun _ -> Atomic.make 0);
    manifest_bytes_last = Atomic.make 0;
  }

let incr_puts (t : t) = Atomic.incr t.puts
let incr_gets (t : t) = Atomic.incr t.gets
let incr_deletes (t : t) = Atomic.incr t.deletes
let incr_rmws (t : t) = Atomic.incr t.rmws
let incr_rmw_conflicts (t : t) = Atomic.incr t.rmw_conflicts
let incr_snapshots (t : t) = Atomic.incr t.snapshots_taken
let incr_scans (t : t) = Atomic.incr t.scans
let incr_rotations (t : t) = Atomic.incr t.memtable_rotations
let incr_flushes (t : t) = Atomic.incr t.flushes

let incr_compactions (t : t) ?src_level () =
  Atomic.incr t.compactions;
  match src_level with
  | Some l when l >= 0 && l < max_levels ->
      Atomic.incr t.compactions_per_level.(l)
  | Some _ | None -> ()

(* Duration accounting for one finished compaction job, from whichever
   maintenance worker ran it. *)
let record_compaction_run (t : t) ~duration_ns =
  ignore (Atomic.fetch_and_add t.compaction_ns (max 0 duration_ns))

let add_bytes_flushed (t : t) n = ignore (Atomic.fetch_and_add t.bytes_flushed n)
let add_bytes_compacted (t : t) n = ignore (Atomic.fetch_and_add t.bytes_compacted n)

let record_move (t : t) ~bytes =
  Atomic.incr t.compaction_moves;
  ignore (Atomic.fetch_and_add t.bytes_moved bytes)

let incr_write_stalls (t : t) = Atomic.incr t.write_stalls
let add_stall_ns (t : t) n = ignore (Atomic.fetch_and_add t.stall_ns (max 0 n))

let add_slowdown (t : t) ~delay_ns =
  Atomic.incr t.write_slowdowns;
  ignore (Atomic.fetch_and_add t.slowdown_delay_ns delay_ns)

let incr_maintenance_wakeups (t : t) = Atomic.incr t.maintenance_wakeups
let add_scrubbed_blocks (t : t) n = ignore (Atomic.fetch_and_add t.scrubbed_blocks (max 0 n))
let incr_corruptions_detected (t : t) = Atomic.incr t.corruptions_detected
let incr_quarantined_tables (t : t) = Atomic.incr t.quarantined_tables
let incr_io_retries (t : t) = Atomic.incr t.io_retries
let incr_auto_repairs (t : t) = Atomic.incr t.auto_repairs

let record_install (t : t) ~kind ~ns ~manifest_bytes =
  let i = kind_index kind in
  Atomic.incr t.installs.(i);
  ignore (Atomic.fetch_and_add t.install_ns.(i) (max 0 ns));
  Atomic.set t.manifest_bytes_last manifest_bytes

(* One durable WAL write+fsync that covered [records] records. A batch of
   n acknowledged n commits with one fsync, so n-1 fsyncs were saved
   relative to per-write durability. *)
let record_group_commit (t : t) ~records =
  Atomic.incr t.wal_group_commits;
  ignore (Atomic.fetch_and_add t.wal_group_records (max 0 records));
  ignore (Atomic.fetch_and_add t.wal_fsyncs_saved (max 0 (records - 1)))

(* One closed group-commit accumulation window: closed early because the
   predicted riders boarded, or by its deadline. *)
let record_window (t : t) ~boarded =
  Atomic.incr (if boarded then t.wal_windows_boarded else t.wal_windows_expired)

let record_commit_wait (t : t) ~ns = Histogram.record t.commit_wait ns
let record_get_latency (t : t) ~ns = Histogram.record t.get_latency ns

(* The hook record every store layer passes to [Wal_writer.create], so
   durable-commit accounting is identical no matter which layer (recovery,
   rotation, a baseline store) opened the log. *)
let wal_observer (t : t) : Clsm_wal.Wal_writer.observer =
  {
    Clsm_wal.Wal_writer.on_group_commit =
      (fun ~records -> record_group_commit t ~records);
    on_commit_wait = (fun ~ns -> record_commit_wait t ~ns);
    on_window = (fun ~boarded -> record_window t ~boarded);
  }

let read (t : t) : snapshot =
  let commit_wait_hist = Histogram.counts t.commit_wait in
  {
    puts = Atomic.get t.puts;
    gets = Atomic.get t.gets;
    deletes = Atomic.get t.deletes;
    rmws = Atomic.get t.rmws;
    rmw_conflicts = Atomic.get t.rmw_conflicts;
    snapshots_taken = Atomic.get t.snapshots_taken;
    scans = Atomic.get t.scans;
    memtable_rotations = Atomic.get t.memtable_rotations;
    flushes = Atomic.get t.flushes;
    compactions = Atomic.get t.compactions;
    compactions_per_level = Array.map Atomic.get t.compactions_per_level;
    compaction_ns = Atomic.get t.compaction_ns;
    bytes_flushed = Atomic.get t.bytes_flushed;
    bytes_compacted = Atomic.get t.bytes_compacted;
    compaction_moves = Atomic.get t.compaction_moves;
    bytes_moved = Atomic.get t.bytes_moved;
    write_stalls = Atomic.get t.write_stalls;
    stall_ns = Atomic.get t.stall_ns;
    write_slowdowns = Atomic.get t.write_slowdowns;
    slowdown_delay_ns = Atomic.get t.slowdown_delay_ns;
    maintenance_wakeups = Atomic.get t.maintenance_wakeups;
    scrubbed_blocks = Atomic.get t.scrubbed_blocks;
    corruptions_detected = Atomic.get t.corruptions_detected;
    quarantined_tables = Atomic.get t.quarantined_tables;
    io_retries = Atomic.get t.io_retries;
    auto_repairs = Atomic.get t.auto_repairs;
    wal_group_commits = Atomic.get t.wal_group_commits;
    wal_group_records = Atomic.get t.wal_group_records;
    wal_fsyncs_saved = Atomic.get t.wal_fsyncs_saved;
    wal_windows_boarded = Atomic.get t.wal_windows_boarded;
    wal_windows_expired = Atomic.get t.wal_windows_expired;
    commit_waits = Array.fold_left ( + ) 0 commit_wait_hist;
    commit_wait_ns = Histogram.sum_ns t.commit_wait;
    commit_wait_hist;
    get_ns = Histogram.sum_ns t.get_latency;
    get_hist = Histogram.counts t.get_latency;
    installs = Array.map Atomic.get t.installs;
    install_ns = Array.map Atomic.get t.install_ns;
    manifest_bytes_last = Atomic.get t.manifest_bytes_last;
  }

(* Ceiling microseconds, so a recorded sub-microsecond latency does not
   read as the 0 of an empty histogram. *)
let percentile_us (hist : int array) ~pct =
  (Histogram.percentile_of_counts hist pct + 999) / 1000

let commit_wait_percentile_us (s : snapshot) ~pct =
  percentile_us s.commit_wait_hist ~pct

let get_percentile_us (s : snapshot) ~pct = percentile_us s.get_hist ~pct

(* ---------- the counter catalogue ----------

   The single source of truth for every rendered representation: [pp] and
   [to_json] both walk this list, so a counter added to the snapshot
   record cannot appear in one and be silently omitted from the other
   (and [merge] below is a record construction, so the compiler forces it
   to account for new fields too). JSON field names are part of the
   scraping surface — keep them stable. *)

(* [`Max] marks high-watermarks, which aggregate by maximum (not sum)
   when several stores' snapshots are merged into one roll-up. *)
let scalar_fields : (string * [ `Sum | `Max ] * (snapshot -> int)) list =
  [
    ("puts", `Sum, fun s -> s.puts);
    ("gets", `Sum, fun s -> s.gets);
    ("deletes", `Sum, fun s -> s.deletes);
    ("rmws", `Sum, fun s -> s.rmws);
    ("rmw_conflicts", `Sum, fun s -> s.rmw_conflicts);
    ("snapshots", `Sum, fun s -> s.snapshots_taken);
    ("scans", `Sum, fun s -> s.scans);
    ("memtable_rotations", `Sum, fun s -> s.memtable_rotations);
    ("flushes", `Sum, fun s -> s.flushes);
    ("compactions", `Sum, fun s -> s.compactions);
    ("compaction_ns", `Sum, fun s -> s.compaction_ns);
    ("bytes_flushed", `Sum, fun s -> s.bytes_flushed);
    ("bytes_compacted", `Sum, fun s -> s.bytes_compacted);
    ("compaction_moves", `Sum, fun s -> s.compaction_moves);
    ("bytes_moved", `Sum, fun s -> s.bytes_moved);
    ("write_stalls", `Sum, fun s -> s.write_stalls);
    ("stall_ns", `Sum, fun s -> s.stall_ns);
    ("write_slowdowns", `Sum, fun s -> s.write_slowdowns);
    ("slowdown_delay_ns", `Sum, fun s -> s.slowdown_delay_ns);
    ("maintenance_wakeups", `Sum, fun s -> s.maintenance_wakeups);
    ("scrubbed_blocks", `Sum, fun s -> s.scrubbed_blocks);
    ("corruptions_detected", `Sum, fun s -> s.corruptions_detected);
    ("quarantined_tables", `Sum, fun s -> s.quarantined_tables);
    ("io_retries", `Sum, fun s -> s.io_retries);
    ("auto_repairs", `Sum, fun s -> s.auto_repairs);
    ("wal_group_commits", `Sum, fun s -> s.wal_group_commits);
    ("wal_group_records", `Sum, fun s -> s.wal_group_records);
    ("wal_fsyncs_saved", `Sum, fun s -> s.wal_fsyncs_saved);
    ("wal_windows_boarded", `Sum, fun s -> s.wal_windows_boarded);
    ("wal_windows_expired", `Sum, fun s -> s.wal_windows_expired);
    ("commit_waits", `Sum, fun s -> s.commit_waits);
    ("commit_wait_ns", `Sum, fun s -> s.commit_wait_ns);
    (* derived from the histogram, so a shard roll-up ([merge] adds the
       buckets) re-resolves the percentiles over the combined population
       instead of averaging per-shard percentiles *)
    ("commit_wait_p50_us", `Max, fun s -> commit_wait_percentile_us s ~pct:50.);
    ("commit_wait_p99_us", `Max, fun s -> commit_wait_percentile_us s ~pct:99.);
    ("get_ns", `Sum, fun s -> s.get_ns);
    ("get_p50_us", `Max, fun s -> get_percentile_us s ~pct:50.);
    ("get_p99_us", `Max, fun s -> get_percentile_us s ~pct:99.);
  ]
  @ List.concat
      (List.mapi
         (fun i kind ->
           [
             ("installs_" ^ kind, `Sum, fun s -> s.installs.(i));
             ("install_ns_total_" ^ kind, `Sum, fun s -> s.install_ns.(i));
           ])
         (Array.to_list install_kinds))
  @ [ ("manifest_bytes_last", `Max, fun s -> s.manifest_bytes_last) ]

(* Aggregate several stores' snapshots (the shard roll-up): counters sum,
   high-watermarks take the maximum. A record construction on purpose —
   adding a snapshot field without deciding its aggregation is a compile
   error here. *)
let merge (a : snapshot) (b : snapshot) : snapshot =
  let per_level =
    Array.init
      (max (Array.length a.compactions_per_level)
         (Array.length b.compactions_per_level))
      (fun i ->
        let at (arr : int array) = if i < Array.length arr then arr.(i) else 0 in
        at a.compactions_per_level + at b.compactions_per_level)
  in
  {
    puts = a.puts + b.puts;
    gets = a.gets + b.gets;
    deletes = a.deletes + b.deletes;
    rmws = a.rmws + b.rmws;
    rmw_conflicts = a.rmw_conflicts + b.rmw_conflicts;
    snapshots_taken = a.snapshots_taken + b.snapshots_taken;
    scans = a.scans + b.scans;
    memtable_rotations = a.memtable_rotations + b.memtable_rotations;
    flushes = a.flushes + b.flushes;
    compactions = a.compactions + b.compactions;
    compactions_per_level = per_level;
    compaction_ns = a.compaction_ns + b.compaction_ns;
    bytes_flushed = a.bytes_flushed + b.bytes_flushed;
    bytes_compacted = a.bytes_compacted + b.bytes_compacted;
    compaction_moves = a.compaction_moves + b.compaction_moves;
    bytes_moved = a.bytes_moved + b.bytes_moved;
    write_stalls = a.write_stalls + b.write_stalls;
    stall_ns = a.stall_ns + b.stall_ns;
    write_slowdowns = a.write_slowdowns + b.write_slowdowns;
    slowdown_delay_ns = a.slowdown_delay_ns + b.slowdown_delay_ns;
    maintenance_wakeups = a.maintenance_wakeups + b.maintenance_wakeups;
    scrubbed_blocks = a.scrubbed_blocks + b.scrubbed_blocks;
    corruptions_detected = a.corruptions_detected + b.corruptions_detected;
    quarantined_tables = a.quarantined_tables + b.quarantined_tables;
    io_retries = a.io_retries + b.io_retries;
    auto_repairs = a.auto_repairs + b.auto_repairs;
    wal_group_commits = a.wal_group_commits + b.wal_group_commits;
    wal_group_records = a.wal_group_records + b.wal_group_records;
    wal_fsyncs_saved = a.wal_fsyncs_saved + b.wal_fsyncs_saved;
    wal_windows_boarded = a.wal_windows_boarded + b.wal_windows_boarded;
    wal_windows_expired = a.wal_windows_expired + b.wal_windows_expired;
    commit_waits = a.commit_waits + b.commit_waits;
    commit_wait_ns = a.commit_wait_ns + b.commit_wait_ns;
    commit_wait_hist = Array.map2 ( + ) a.commit_wait_hist b.commit_wait_hist;
    get_ns = a.get_ns + b.get_ns;
    get_hist = Array.map2 ( + ) a.get_hist b.get_hist;
    installs = Array.map2 ( + ) a.installs b.installs;
    install_ns = Array.map2 ( + ) a.install_ns b.install_ns;
    manifest_bytes_last = max a.manifest_bytes_last b.manifest_bytes_last;
  }

let merge_all = function
  | [] -> read (create ())
  | s :: rest -> List.fold_left merge s rest

let pp ppf s =
  let per_level =
    s.compactions_per_level |> Array.to_list
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) -> Printf.sprintf "L%d:%d" i n)
    |> String.concat " "
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, _, get) ->
      if i > 0 then
        if i mod 5 = 0 then Format.fprintf ppf "@," else Format.fprintf ppf " ";
      Format.fprintf ppf "%s=%d" name (get s);
      (* the per-level breakdown rides along with its total *)
      if name = "compactions" && per_level <> "" then
        Format.fprintf ppf " [%s]" per_level)
    scalar_fields;
  Format.fprintf ppf "@]"

let to_json (s : snapshot) =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  List.iter
    (fun (name, _, get) ->
      Buffer.add_string b (Printf.sprintf "\"%s\":%d," name (get s));
      if name = "compactions" then begin
        Buffer.add_string b "\"compactions_per_level\":[";
        Array.iteri
          (fun i n ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (string_of_int n))
          s.compactions_per_level;
        Buffer.add_string b "],"
      end)
    scalar_fields;
  (* drop the trailing comma the last field left *)
  Buffer.truncate b (Buffer.length b - 1);
  Buffer.add_char b '}';
  Buffer.contents b
