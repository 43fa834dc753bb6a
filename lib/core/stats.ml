(* Per-level compaction counters are a block of cells indexed by source
   level; 16 comfortably covers any [Lsm_config.num_levels] in use. *)
let max_levels = 16

module Histogram = Clsm_util.Histogram

(* Installs are counted per edit kind, indexed by [kind_index]. *)
type install_kind = [ `Flush | `Compaction | `Quarantine | `Commit ]

let install_kinds = [| "flush"; "compaction"; "quarantine"; "commit" |]

let kind_index = function
  | `Flush -> 0
  | `Compaction -> 1
  | `Quarantine -> 2
  | `Commit -> 3

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
  maintenance_spawns : int;
  maintenance_jobs : int;
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

(* Ceiling microseconds, so a recorded sub-microsecond latency does not
   read as the 0 of an empty histogram. *)
let percentile_us (hist : int array) ~pct =
  (Histogram.percentile_of_counts hist pct + 999) / 1000

let commit_wait_percentile_us s ~pct = percentile_us s.commit_wait_hist ~pct
let get_percentile_us s ~pct = percentile_us s.get_hist ~pct

(* ---------- the catalogue ----------

   Each scalar metric is declared once below, in rendering order. JSON
   names are part of the scraping surface — keep them stable. *)

type rule = Sum | Max
type counter = int

let catalogue_rev = ref []
let rules_rev = ref []

(* A registry cell, and a rendered row of it when [name] is given. A row
   with no cell is computed from a histogram: a roll-up adds the buckets
   and recomputes it, so it needs no rule. *)
let cell ?(rule = Sum) ?name get =
  rules_rev := (rule, get) :: !rules_rev;
  let c = List.length !rules_rev - 1 in
  Option.iter
    (fun name -> catalogue_rev := (name, Some c, get) :: !catalogue_rev)
    name;
  c

let metric ?rule name = cell ?rule ~name
let derived name get = catalogue_rev := (name, None, get) :: !catalogue_rev

let puts = metric "puts" (fun s -> s.puts)
let gets = metric "gets" (fun s -> s.gets)
let deletes = metric "deletes" (fun s -> s.deletes)
let rmws = metric "rmws" (fun s -> s.rmws)
let rmw_conflicts = metric "rmw_conflicts" (fun s -> s.rmw_conflicts)
let snapshots_taken = metric "snapshots" (fun s -> s.snapshots_taken)
let scans = metric "scans" (fun s -> s.scans)
let memtable_rotations = metric "memtable_rotations" (fun s -> s.memtable_rotations)
let flushes = metric "flushes" (fun s -> s.flushes)
let compactions = metric "compactions" (fun s -> s.compactions)

let compactions_per_level =
  Array.init max_levels (fun l -> cell (fun s -> s.compactions_per_level.(l)))

let compaction_ns = metric "compaction_ns" (fun s -> s.compaction_ns)
let bytes_flushed = metric "bytes_flushed" (fun s -> s.bytes_flushed)
let bytes_compacted = metric "bytes_compacted" (fun s -> s.bytes_compacted)
let compaction_moves = metric "compaction_moves" (fun s -> s.compaction_moves)
let bytes_moved = metric "bytes_moved" (fun s -> s.bytes_moved)
let write_stalls = metric "write_stalls" (fun s -> s.write_stalls)
let stall_ns = metric "stall_ns" (fun s -> s.stall_ns)
let write_slowdowns = metric "write_slowdowns" (fun s -> s.write_slowdowns)
let slowdown_delay_ns = metric "slowdown_delay_ns" (fun s -> s.slowdown_delay_ns)
let maintenance_wakeups = metric "maintenance_wakeups" (fun s -> s.maintenance_wakeups)
let maintenance_spawns = metric "maintenance_spawns" (fun s -> s.maintenance_spawns)
let maintenance_jobs = metric "maintenance_jobs" (fun s -> s.maintenance_jobs)
let scrubbed_blocks = metric "scrubbed_blocks" (fun s -> s.scrubbed_blocks)
let corruptions_detected = metric "corruptions_detected" (fun s -> s.corruptions_detected)
let quarantined_tables = metric "quarantined_tables" (fun s -> s.quarantined_tables)
let io_retries = metric "io_retries" (fun s -> s.io_retries)
let auto_repairs = metric "auto_repairs" (fun s -> s.auto_repairs)
let wal_group_commits = metric "wal_group_commits" (fun s -> s.wal_group_commits)
let wal_group_records = metric "wal_group_records" (fun s -> s.wal_group_records)
let wal_fsyncs_saved = metric "wal_fsyncs_saved" (fun s -> s.wal_fsyncs_saved)
let wal_windows_boarded = metric "wal_windows_boarded" (fun s -> s.wal_windows_boarded)
let wal_windows_expired = metric "wal_windows_expired" (fun s -> s.wal_windows_expired)

let () =
  derived "commit_waits" (fun s -> s.commit_waits);
  derived "commit_wait_ns" (fun s -> s.commit_wait_ns);
  derived "commit_wait_p50_us" (commit_wait_percentile_us ~pct:50.);
  derived "commit_wait_p99_us" (commit_wait_percentile_us ~pct:99.);
  derived "get_ns" (fun s -> s.get_ns);
  derived "get_p50_us" (get_percentile_us ~pct:50.);
  derived "get_p99_us" (get_percentile_us ~pct:99.)

let installs, install_ns =
  Array.split
    (Array.mapi
       (fun i kind ->
         let n = metric ("installs_" ^ kind) (fun s -> s.installs.(i)) in
         (n, metric ("install_ns_total_" ^ kind) (fun s -> s.install_ns.(i))))
       install_kinds)

let manifest_bytes_last =
  metric ~rule:Max "manifest_bytes_last" (fun s -> s.manifest_bytes_last)

let catalogue = List.rev !catalogue_rev
let rules = Array.of_list (List.rev !rules_rev)

type t = {
  cells : int Atomic.t array; (* indexed by [counter] *)
  commit_wait : Histogram.t;
  get_latency : Histogram.t;
}

let create () =
  {
    cells = Array.init (Array.length rules) (fun _ -> Atomic.make 0);
    commit_wait = Histogram.create ();
    get_latency = Histogram.create ();
  }

let incr t c = Atomic.incr t.cells.(c)

(* Counters only grow: a negative amount (a clock step) counts as 0. *)
let add t c n = ignore (Atomic.fetch_and_add t.cells.(c) (max 0 n))
let set t c n = Atomic.set t.cells.(c) n

let record_compaction t ~src_level =
  incr t compactions;
  if src_level >= 0 && src_level < max_levels then
    incr t compactions_per_level.(src_level)

let record_install t ~kind ~ns ~manifest_bytes =
  let i = kind_index kind in
  incr t installs.(i);
  add t install_ns.(i) ns;
  set t manifest_bytes_last manifest_bytes

let record_get_latency t ~ns = Histogram.record t.get_latency ns

(* The hook record every store layer passes to [Wal_writer.create], so
   durable-commit accounting is identical no matter which layer (recovery,
   rotation, a baseline store) opened the log. *)
let wal_observer t : Clsm_wal.Wal_writer.observer =
  {
    Clsm_wal.Wal_writer.on_group_commit =
      (fun ~records ->
        incr t wal_group_commits;
        add t wal_group_records records;
        add t wal_fsyncs_saved (records - 1));
    on_commit_wait = (fun ~ns -> Histogram.record t.commit_wait ns);
    on_window =
      (fun ~boarded ->
        incr t (if boarded then wal_windows_boarded else wal_windows_expired));
  }

(* The one place a snapshot is built. *)
let read t : snapshot =
  let get c = Atomic.get t.cells.(c) in
  let commit_wait_hist = Histogram.counts t.commit_wait in
  {
    puts = get puts;
    gets = get gets;
    deletes = get deletes;
    rmws = get rmws;
    rmw_conflicts = get rmw_conflicts;
    snapshots_taken = get snapshots_taken;
    scans = get scans;
    memtable_rotations = get memtable_rotations;
    flushes = get flushes;
    compactions = get compactions;
    compactions_per_level = Array.map get compactions_per_level;
    compaction_ns = get compaction_ns;
    bytes_flushed = get bytes_flushed;
    bytes_compacted = get bytes_compacted;
    compaction_moves = get compaction_moves;
    bytes_moved = get bytes_moved;
    write_stalls = get write_stalls;
    stall_ns = get stall_ns;
    write_slowdowns = get write_slowdowns;
    slowdown_delay_ns = get slowdown_delay_ns;
    maintenance_wakeups = get maintenance_wakeups;
    maintenance_spawns = get maintenance_spawns;
    maintenance_jobs = get maintenance_jobs;
    scrubbed_blocks = get scrubbed_blocks;
    corruptions_detected = get corruptions_detected;
    quarantined_tables = get quarantined_tables;
    io_retries = get io_retries;
    auto_repairs = get auto_repairs;
    wal_group_commits = get wal_group_commits;
    wal_group_records = get wal_group_records;
    wal_fsyncs_saved = get wal_fsyncs_saved;
    wal_windows_boarded = get wal_windows_boarded;
    wal_windows_expired = get wal_windows_expired;
    commit_waits = Array.fold_left ( + ) 0 commit_wait_hist;
    commit_wait_ns = Histogram.sum_ns t.commit_wait;
    commit_wait_hist;
    get_ns = Histogram.sum_ns t.get_latency;
    get_hist = Histogram.counts t.get_latency;
    installs = Array.map get installs;
    install_ns = Array.map get install_ns;
    manifest_bytes_last = get manifest_bytes_last;
  }

(* The shard roll-up: fold every snapshot into a fresh registry by the
   cells' rules, add the histograms bucket by bucket, and read it back. *)
let merge_all snapshots =
  let t = create () in
  List.iter
    (fun s ->
      Array.iteri
        (fun c (rule, get) ->
          let v = Atomic.get t.cells.(c) and v' = get s in
          set t c (match rule with Sum -> v + v' | Max -> max v v'))
        rules;
      Histogram.add_counts t.commit_wait s.commit_wait_hist
        ~sum_ns:s.commit_wait_ns;
      Histogram.add_counts t.get_latency s.get_hist ~sum_ns:s.get_ns)
    snapshots;
  read t

let pp ppf s =
  let levels =
    Array.to_list (Array.mapi (Printf.sprintf "L%d:%d") s.compactions_per_level)
    |> List.filteri (fun l _ -> s.compactions_per_level.(l) > 0)
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, _, get) ->
      if i > 0 then Format.fprintf ppf (if i mod 5 = 0 then "@," else " ");
      Format.fprintf ppf "%s=%d" name (get s);
      (* the per-level breakdown rides along with its total *)
      if name = "compactions" && levels <> [] then
        Format.fprintf ppf " [%s]" (String.concat " " levels))
    catalogue;
  Format.fprintf ppf "@]"

let to_json s =
  let levels = List.map string_of_int (Array.to_list s.compactions_per_level) in
  let field (name, _, get) =
    Printf.sprintf "\"%s\":%d" name (get s)
    ^
    if name <> "compactions" then ""
    else
      Printf.sprintf ",\"compactions_per_level\":[%s]" (String.concat "," levels)
  in
  "{" ^ String.concat "," (List.map field catalogue) ^ "}"
