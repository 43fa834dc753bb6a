(* The benchmark's four workloads: their set-up, the closed-loop clients
   that drive them and the checks that every result is correct.

   Load comes from 2 client domains of this process (one is the main
   domain), each sending its next request as soon as the previous one
   returns, with no think time. All keys, values and op choices derive
   from the seed; the store sees only the generated keys and values.

   Values embed their key and a (writer, version) header:
   "<key>|<writer>|<version>|<filler>", writer 'p' for the preload and
   '0'/'1' for the clients. Writes are partitioned by client (a client
   writes only key indices congruent to its id mod 2), so a client knows
   the exact value of every key it owns. *)

open Clsm_core
module Key_dist = Clsm_workload.Key_dist
module Rng = Clsm_workload.Rng
module Cache = Clsm_sstable.Cache

let clients = 2

type scale = Smoke | Full

type spec = {
  name : string;
  key_len : int;
  value_len : int;
  preload : int;  (** keys written during set-up *)
  dist : Key_dist.t;  (** over the preloaded key indices *)
  get_ratio : float;
  scan_ratio : float;  (** the rest of the ops are puts *)
  fresh_puts : bool;  (** puts write new keys instead of overwriting *)
  memtable_bytes : int;
  cache_bytes : int;
  wal_sync : Options.wal_sync;
  warm : [ `None | `Fold | `Gets of int ];
}

let names = [ "put_compact"; "get_resident"; "production_mix"; "durable_put" ]

let spec scale name =
  let n full = match scale with Full -> full | Smoke -> max 64 (full / 20) in
  let mb m = match scale with Full -> m lsl 20 | Smoke -> m lsl 16 in
  let base =
    {
      name;
      key_len = 8;
      value_len = 256;
      preload = 0;
      dist = Key_dist.uniform 1;
      get_ratio = 0.0;
      scan_ratio = 0.0;
      fresh_puts = false;
      memtable_bytes = mb 128;
      cache_bytes = mb 64;
      wal_sync = `Async;
      warm = `None;
    }
  in
  match name with
  | "put_compact" ->
      (* Paper Fig. 5 in steady state: uniform overwrites of a preloaded
         key space through a small memtable, so flush, compaction and
         backpressure do the work and the cache hit path does none. *)
      let preload = n 200_000 in
      { base with preload; dist = Key_dist.uniform preload; memtable_bytes = mb 4 }
  | "get_resident" ->
      (* Paper Fig. 6: skewed point gets and short scans over a data set
         that fits the block cache — no IO, WAL or compaction. *)
      let preload = n 100_000 in
      {
        base with
        preload;
        dist = Key_dist.skewed_blocks preload;
        get_ratio = 0.95;
        scan_ratio = 0.05;
        warm = `Fold;
      }
  | "production_mix" ->
      (* Paper §5.2: 40 B keys, 1 KB values, heavy-tailed popularity, 90 %
         reads over a data set ~4x the cache, beside writes that flush and
         compact. *)
      let preload = n 64_000 in
      {
        base with
        key_len = 40;
        value_len = 1024;
        preload;
        dist = Key_dist.heavy_tail preload;
        get_ratio = 0.9;
        memtable_bytes = mb 8;
        cache_bytes = mb 16;
        warm = `Gets (n 50_000);
      }
  | "durable_put" ->
      (* The WAL commit path alone: group-committed puts of fresh keys.
         The memtable limit is far above what even a traced run (two
         phases) writes, so nothing flushes. *)
      let preload = n 50_000 in
      {
        base with
        preload;
        dist = Key_dist.uniform preload;
        fresh_puts = true;
        memtable_bytes = mb 512;
        wal_sync = `Group Options.default_group_commit;
      }
  | other -> invalid_arg ("unknown workload " ^ other)

(* ---------- values ---------- *)

type client = {
  id : int;
  rng : Rng.t;
  mutable lat : Samples.t array;  (** this phase, by {!Tracer} op kind *)
  mutable attempted : int;
  mutable failed : int;
  mutable puts : int;  (** acknowledged puts, all phases *)
  mutable fresh : int;  (** acknowledged fresh keys, all phases *)
}

type t = {
  spec : spec;
  keys : string array;
  filler : string;
  versions : int array;
      (** last version written to each preloaded key: 0 = the preload,
          negative = a put that raised, so the value is unknown. Slot [i]
          is written only by client [i mod 2]. *)
  cl : client array;
  violations : int Atomic.t;
  first_violations : string list ref;
  violations_mu : Mutex.t;
}

let create spec ~seed =
  let rng = Rng.create seed in
  let filler =
    String.init spec.value_len (fun _ -> Char.chr (97 + Rng.int rng 26))
  in
  {
    spec;
    keys = Array.init spec.preload (Key_dist.key_of_index ~key_len:spec.key_len);
    filler;
    versions = Array.make spec.preload 0;
    cl =
      Array.init clients (fun id ->
          {
            id;
            rng = Rng.split rng;
            lat = [||];
            attempted = 0;
            failed = 0;
            puts = 0;
            fresh = 0;
          });
    violations = Atomic.make 0;
    first_violations = ref [];
    violations_mu = Mutex.create ();
  }

let violation t msg =
  if Atomic.fetch_and_add t.violations 1 < 5 then
    Mutex.protect t.violations_mu (fun () ->
        t.first_violations := msg :: !(t.first_violations))

let writer_of_client c = Char.chr (Char.code '0' + c)

let make_value t key ~writer ~version =
  let b = Bytes.of_string t.filler in
  let kl = String.length key in
  let v = string_of_int version in
  Bytes.blit_string key 0 b 0 kl;
  Bytes.set b kl '|';
  Bytes.set b (kl + 1) writer;
  Bytes.set b (kl + 2) '|';
  Bytes.blit_string v 0 b (kl + 3) (String.length v);
  Bytes.set b (kl + 3 + String.length v) '|';
  Bytes.unsafe_to_string b

(* [Some (writer, version)] when [v] is a well-formed value for [key]. *)
let parse_value t key v =
  let kl = String.length key and n = String.length v in
  let rec same i = i >= kl || (key.[i] = v.[i] && same (i + 1)) in
  let rec version i acc =
    if i >= n then None
    else
      match v.[i] with
      | '0' .. '9' as c -> version (i + 1) ((acc * 10) + Char.code c - 48)
      | '|' when i > kl + 3 -> Some acc
      | _ -> None
  in
  if n <> t.spec.value_len || n < kl + 5 || not (same 0) then None
  else if v.[kl] <> '|' || v.[kl + 2] <> '|' then None
  else Option.map (fun ver -> (v.[kl + 1], ver)) (version (kl + 3) 0)

let expected_writer idx version =
  if version = 0 then 'p' else writer_of_client (idx land 1)

(* A value read for preloaded key [idx] by client [c]. A key the reader
   owns (or any key, when nobody writes) must hold exactly its last
   write; another client's key must hold one of that client's writes. *)
let check_read t ~c idx = function
  | None -> violation t (Printf.sprintf "key %s missing" t.keys.(idx))
  | Some v -> (
      let key = t.keys.(idx) in
      match parse_value t key v with
      | None -> violation t (Printf.sprintf "value of %s does not embed its key" key)
      | Some (w, ver) ->
          let last = t.versions.(idx) in
          let exact = idx land 1 = c || t.spec.get_ratio +. t.spec.scan_ratio >= 1.0 in
          if last >= 0 && exact && (w, ver) <> (expected_writer idx last, last) then
            violation t
              (Printf.sprintf "key %s: read version %c%d, last write %c%d" key w ver
                 (expected_writer idx last) last)
          else if (not exact) && w <> 'p' && w <> writer_of_client (idx land 1) then
            violation t (Printf.sprintf "key %s: written by %c, not its owner" key w))

let check_scan t ~c idx limit rows =
  let expected = min limit (t.spec.preload - idx) in
  if List.length rows <> expected then
    violation t
      (Printf.sprintf "scan from %s returned %d rows, expected %d" t.keys.(idx)
         (List.length rows) expected)
  else
    List.iteri
      (fun j (k, v) ->
        if k <> t.keys.(idx + j) then
          violation t
            (Printf.sprintf "scan from %s: row %d is %s, expected %s" t.keys.(idx) j k
               t.keys.(idx + j))
        else check_read t ~c (idx + j) (Some v))
      rows

(* ---------- set-up ---------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let options t ~dir ~env =
  {
    (Options.default ~dir) with
    Options.memtable_bytes = t.spec.memtable_bytes;
    cache_bytes = t.spec.cache_bytes;
    wal_sync = t.spec.wal_sync;
    env;
    (* A background scrub pass would read every table mid-run; it is
       not part of any workload. *)
    scrub_interval = 0.0;
  }

type store = { db : Db.t; io : Io_env.counters; dir : string }

(* Open a fresh store, preload it, compact it and warm its cache; returns
   the store and the seconds this took. *)
let setup t ~dir ~seed =
  rm_rf dir;
  Array.fill t.versions 0 (Array.length t.versions) 0;
  let io = Io_env.counters () in
  let t0 = Samples.now_ns () in
  let db = Db.open_store (options t ~dir ~env:(Io_env.wrap io Clsm_env.Env.unix)) in
  let chunk = 1000 in
  let rec preload lo =
    if lo < t.spec.preload then begin
      let hi = min t.spec.preload (lo + chunk) in
      Db.write_batch db
        (List.init (hi - lo) (fun j ->
             let key = t.keys.(lo + j) in
             Db.Batch_put (key, make_value t key ~writer:'p' ~version:0)));
      preload hi
    end
  in
  preload 0;
  Db.compact_now db;
  (match t.spec.warm with
  | `None -> ()
  | `Fold -> ignore (Db.fold (fun _ _ n -> n + 1) db 0 : int)
  | `Gets n ->
      let rng = Rng.create (seed lxor 0x5eed) in
      for _ = 1 to n do
        ignore (Db.get db t.keys.(Key_dist.next_index t.spec.dist rng) : string option)
      done);
  ({ db; io; dir }, float_of_int (Samples.now_ns () - t0) /. 1e9)

(* ---------- sizes ---------- *)

let user_bytes t n = n * (t.spec.key_len + t.spec.value_len)
let acked_puts t = Array.fold_left (fun a cl -> a + cl.puts) 0 t.cl
let live_keys t = t.spec.preload + Array.fold_left (fun a cl -> a + cl.fresh) 0 t.cl

(* Bytes of live [.sst] and [.log] files. *)
let disk_bytes ?(suffixes = [ ".sst"; ".log" ]) dir =
  Array.fold_left
    (fun acc f ->
      if List.exists (Filename.check_suffix f) suffixes then
        acc + (try (Unix.stat (Filename.concat dir f)).Unix.st_size with Unix.Unix_error _ -> 0)
      else acc)
    0 (Sys.readdir dir)

(* ---------- the closed loop ---------- *)

let own_index t c =
  let i = Key_dist.next_index t.spec.dist t.cl.(c).rng in
  let i = i - (i land 1) + c in
  if i >= t.spec.preload then i - 2 else i

(* One generated request. [Put] carries the preloaded key index it
   overwrites and the new version, or index -1 for a fresh key. *)
type op =
  | Get of int
  | Scan of int * int
  | Put of { idx : int; version : int; key : string; value : string }

let next_op t cl =
  let spec = t.spec in
  let u = Rng.float cl.rng in
  if u < spec.get_ratio then Get (Key_dist.next_index spec.dist cl.rng)
  else if u < spec.get_ratio +. spec.scan_ratio then
    let idx = Key_dist.next_index spec.dist cl.rng in
    Scan (idx, 10 + Rng.int cl.rng 11)
  else
    let writer = writer_of_client cl.id in
    if spec.fresh_puts then
      let key =
        Key_dist.key_of_index ~key_len:spec.key_len (spec.preload + (2 * cl.fresh) + cl.id)
      in
      Put { idx = -1; version = 1; key; value = make_value t key ~writer ~version:1 }
    else
      let idx = own_index t cl.id in
      let version = abs t.versions.(idx) + 1 in
      let key = t.keys.(idx) in
      Put { idx; version; key; value = make_value t key ~writer ~version }

(* A client sends requests until [deadline]; [sample] runs between
   requests of client 0. *)
let run_client t db cl ~deadline ~traced ~sample =
  let d = if traced then Some (Tracer.client cl.id) else None in
  let timed kind f =
    Option.iter (fun d -> Tracer.op_begin d kind) d;
    let start = Samples.now_ns () in
    let r = match f () with v -> Some v | exception _ -> None in
    let stop = Samples.now_ns () in
    Option.iter (fun d -> Tracer.op_end d ~start ~stop) d;
    Samples.add cl.lat.(kind) (stop - start);
    cl.attempted <- cl.attempted + 1;
    if Option.is_none r then cl.failed <- cl.failed + 1;
    (r, stop)
  in
  let rec loop () =
    let stop =
      match next_op t cl with
      | Get idx ->
          let r, stop = timed Tracer.kind_get (fun () -> Db.get db t.keys.(idx)) in
          Option.iter (check_read t ~c:cl.id idx) r;
          stop
      | Scan (idx, limit) ->
          let r, stop =
            timed Tracer.kind_scan (fun () -> Db.range ~start:t.keys.(idx) ~limit db)
          in
          Option.iter (check_scan t ~c:cl.id idx limit) r;
          stop
      | Put { idx; version; key; value } ->
          let r, stop = timed Tracer.kind_put (fun () -> Db.put db ~key ~value) in
          let ok = Option.is_some r in
          if ok then cl.puts <- cl.puts + 1;
          if idx < 0 then (if ok then cl.fresh <- cl.fresh + 1)
          else t.versions.(idx) <- (if ok then version else -version);
          stop
    in
    if cl.id = 0 then begin
      sample stop;
      if traced && cl.attempted land 1023 = 0 then begin
        Tracer.gc_poll ();
        let s = Db.stats db and c = Db.cache_stats db in
        Tracer.sample_timeline
          [|
            stop;
            List.hd (Db.level_file_counts db);
            Db.memtable_bytes db;
            s.Stats.flushes;
            s.compactions;
            s.write_stalls;
            s.write_slowdowns;
            c.Cache.hits;
            c.misses;
          |]
      end
    end;
    if stop < deadline then loop ()
  in
  loop ()

(* What one measured phase saw. *)
type phase = {
  wall_s : float;
  lat : int array array;  (** raw latencies, ascending, by {!Tracer} op kind *)
  space_amp : float;  (** mean over the phase of live .sst + .log bytes / live user bytes *)
  live_heap_mb : float;  (** at the end of the phase, after a full major GC *)
  attempted : int;
  failed : int;
  stats0 : Stats.snapshot;
  stats1 : Stats.snapshot;
  cache0 : Cache.stats;
  cache1 : Cache.stats;
  io0 : Io_env.snapshot;
  io1 : Io_env.snapshot;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let sample_every_ns = 100_000_000

let measure t store ~seconds ~traced ~capacity =
  let db = store.db in
  Array.iter
    (fun (cl : client) ->
      cl.lat <- Array.init 3 (fun _ -> Samples.create ~capacity ());
      cl.attempted <- 0;
      cl.failed <- 0)
    t.cl;
  let space = ref [] and next_sample = ref 0 in
  let sample now =
    if now >= !next_sample then begin
      next_sample := now + sample_every_ns;
      space := Samples.ratio (disk_bytes store.dir) (user_bytes t (live_keys t)) :: !space
    end
  in
  (* Collect the set-up's (or the previous phase's) garbage now, so the
     major GC does not charge it to this phase's clients. *)
  Gc.full_major ();
  let stats0 = Db.stats db and cache0 = Db.cache_stats db in
  let io0 = Io_env.snapshot store.io and gc0 = Gc.quick_stat () in
  if traced then Tracer.start ();
  let t0 = Samples.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let run cl ~sample = run_client t db cl ~deadline ~traced ~sample in
  let others =
    Array.to_list
      (Array.map
         (fun cl -> Domain.spawn (fun () -> run cl ~sample:ignore))
         (Array.sub t.cl 1 (clients - 1)))
  in
  run t.cl.(0) ~sample;
  List.iter Domain.join others;
  let wall_s = float_of_int (Samples.now_ns () - t0) /. 1e9 in
  if traced then Tracer.stop ();
  (* The store's live memory: what a full collection keeps, less this
     benchmark's own latency buffers, which grow with throughput. *)
  Gc.full_major ();
  let buffers =
    Array.fold_left
      (fun a (cl : client) -> Array.fold_left (fun a s -> a + Samples.words s) a cl.lat)
      0 t.cl
  in
  let live_words = (Gc.quick_stat ()).live_words - buffers in
  let phase =
    {
      wall_s;
      lat =
        Array.init 3 (fun k ->
            Samples.sorted (Array.to_list (Array.map (fun (cl : client) -> cl.lat.(k)) t.cl)));
      space_amp = List.fold_left ( +. ) 0.0 !space /. float_of_int (max 1 (List.length !space));
      live_heap_mb = float_of_int (live_words * (Sys.word_size / 8)) /. float_of_int (1 lsl 20);
      attempted = Array.fold_left (fun a (cl : client) -> a + cl.attempted) 0 t.cl;
      failed = Array.fold_left (fun a (cl : client) -> a + cl.failed) 0 t.cl;
      stats0;
      stats1 = Db.stats db;
      cache0;
      cache1 = Db.cache_stats db;
      io0;
      io1 = Io_env.snapshot store.io;
      gc0;
      gc1 = Gc.quick_stat ();
    }
  in
  Array.iter (fun (cl : client) -> cl.lat <- [||]) t.cl;
  phase

(* The mechanism a workload is built to bypass must stay idle. *)
let check_bypass t p =
  let io = Io_env.diff p.io1 p.io0 in
  match t.spec.name with
  | "get_resident" ->
      let reads = Io_env.total io.s_read_calls in
      let hits = p.cache1.Cache.hits - p.cache0.Cache.hits in
      let misses = p.cache1.misses - p.cache0.misses in
      let rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
      if reads <> 0 then violation t (Printf.sprintf "%d table reads on a resident set" reads);
      if rate < 0.99 then violation t (Printf.sprintf "cache hit rate %.4f < 0.99" rate)
  | "durable_put" ->
      let flushes = p.stats1.Stats.flushes - p.stats0.Stats.flushes in
      let compactions = p.stats1.compactions - p.stats0.compactions in
      if flushes <> 0 || compactions <> 0 then
        violation t
          (Printf.sprintf "%d flushes and %d compactions in a run sized to need none" flushes
             compactions)
  | _ -> ()

(* The value key [idx] must hold at the end, [None] when unknown. *)
let final_value t idx =
  if idx < t.spec.preload then
    let v = t.versions.(idx) in
    if v < 0 then None
    else Some (make_value t t.keys.(idx) ~writer:(expected_writer idx v) ~version:v)
  else
    let off = idx - t.spec.preload in
    let c = off land 1 in
    if off / 2 < t.cl.(c).fresh then
      Some
        (make_value t
           (Key_dist.key_of_index ~key_len:t.spec.key_len idx)
           ~writer:(writer_of_client c) ~version:1)
    else None

(* Reopen the directory (after a clean close, or for the durable
   workload after a simulated crash that loses every unsynced byte) and
   check every key's final value: nothing lost, nothing extra, nothing
   stale. *)
let verify_reopened t store =
  if t.spec.fresh_puts then begin
    Db.simulate_crash store.db;
    Io_env.drop_unsynced store.io
  end
  else Db.close store.db;
  let db = Db.open_store (options t ~dir:store.dir ~env:Clsm_env.Env.unix) in
  let seen =
    Db.fold
      (fun key v n ->
        (match int_of_string_opt key with
        | None -> violation t (Printf.sprintf "unexpected key %S after reopen" key)
        | Some idx -> (
            match final_value t idx with
            | Some expected when expected <> v ->
                violation t (Printf.sprintf "key %s has a stale or wrong value after reopen" key)
            | _ -> ()));
        n + 1)
      db 0
  in
  Db.close db;
  if seen <> live_keys t then
    violation t
      (Printf.sprintf "%d keys after reopen, %d acknowledged" seen (live_keys t))
