(* Single-thread service times of the real implementation, timed with
   [Bench_store.ns_row] (ns and minor words per call). Each row is named
   after the [Clsm_sim_lsm.Costs] field it backs: the simulator charges
   [mem_write] for a skip-list insert plus WAL enqueue, [mem_read] for a
   memtable search including Bloom checks, [snapshot_overhead] for
   getSnap, and a cLSM read-modify-write as a [mem_read] followed by a
   [mem_write]. Keys are built before timing, so a row costs the
   operation and not its key's [sprintf]. *)

module SL = Clsm_skiplist.Skiplist.Make (String)
module M = Clsm_core.Memtable
module Db = Clsm_core.Db

let samples = 5
let ops = 20_000
let n = 100_000
let key i = Printf.sprintf "key%08d" i

(* [ops] keys drawn from [0, range), cycled through by the call index. *)
let probes ~seed ~range =
  let rng = Random.State.make [| seed |] in
  Array.init ops (fun _ -> key (Random.State.int rng range))

(* Rows are printed as they finish; the JSON object is not kept. *)
let row name call =
  ignore (Bench_store.ns_row ~samples ~ops name call : Bench_store.J.t)

(* A fresh key per call across the warm-up and every sample. *)
let fresh_keys ~from =
  let keys = Array.init (ops * (samples + 1)) (fun j -> key (from + j)) in
  let next = ref 0 in
  fun () ->
    let k = keys.(!next) in
    incr next;
    k

let skiplist_rows () =
  let filled = SL.create () in
  for i = 0 to n - 1 do
    ignore (SL.insert filled (key i) i)
  done;
  let fresh = fresh_keys ~from:n in
  row "mem_write.skiplist_insert" (fun _ ->
      ignore (SL.insert filled (fresh ()) 0));
  let probes = probes ~seed:1 ~range:n in
  row "mem_read.skiplist_find" (fun i ->
      ignore (Sys.opaque_identity (SL.find filled probes.(i))))

let memtable_rows () =
  let m = M.create () in
  let payload = Clsm_lsm.Entry.Value "payload-256-bytes" in
  for i = 0 to n - 1 do
    M.add m ~user_key:(key i) ~ts:(i + 1) payload
  done;
  let ts = ref n in
  let probes = probes ~seed:2 ~range:n in
  row "mem_write.memtable_add" (fun i ->
      incr ts;
      M.add m ~user_key:probes.(i) ~ts:!ts payload);
  row "mem_read.memtable_get" (fun i ->
      ignore
        (Sys.opaque_identity (M.get m ~user_key:probes.(i) ~snap_ts:max_int)))

(* Half the probes are members. *)
let bloom_row () =
  let filter = Clsm_sstable.Bloom.create (List.init 10_000 key) in
  let probes = probes ~seed:3 ~range:20_000 in
  row "mem_read.bloom_mem" (fun i ->
      ignore (Sys.opaque_identity (Clsm_sstable.Bloom.mem filter probes.(i))))

let wal_row () =
  let dir = Bench_store.fresh_dir () in
  let w = Clsm_wal.Wal_writer.create (Filename.concat dir "bench.log") in
  let payload = String.make 264 'x' in
  row "mem_write.wal_append_async" (fun _ ->
      Clsm_wal.Wal_writer.append w payload);
  Clsm_wal.Wal_writer.close w;
  Bench_store.rm_rf dir

let db_rows () =
  let dir = Bench_store.fresh_dir () in
  let db =
    Db.open_store
      {
        (Clsm_core.Options.default ~dir) with
        Clsm_core.Options.memtable_bytes = 1 lsl 30 (* no rotation mid-row *);
        wal_enabled = true;
      }
  in
  for i = 0 to n - 1 do
    Db.put db ~key:(key i) ~value:(String.make 256 'v')
  done;
  let value = String.make 256 'w' in
  let probes = probes ~seed:4 ~range:n in
  row "mem_write.db_put" (fun i -> Db.put db ~key:probes.(i) ~value);
  row "mem_read.db_get" (fun i ->
      ignore (Sys.opaque_identity (Db.get db probes.(i))));
  row "snapshot_overhead.db_get_snap" (fun _ ->
      Db.release_snapshot db (Db.get_snap db));
  row "mem_read+mem_write.db_rmw" (fun _ ->
      ignore
        (Db.rmw db ~key:"counter" (fun v ->
             let c = match v with Some s -> int_of_string s | None -> 0 in
             Db.Set (string_of_int (c + 1)))));
  Db.close db;
  Bench_store.rm_rf dir

let run () =
  Printf.printf
    "\n== Calibration: single-thread service times (median of %d batches \
     of %d calls) ==\n%!"
    samples ops;
  skiplist_rows ();
  memtable_rows ();
  bloom_row ();
  wal_row ();
  db_rows ();
  Printf.printf
    "(row prefix = the Clsm_sim_lsm.Costs field the row backs)\n%!"
