(* Isolated probes, run after the traced phase: each calls one layer's
   public functions on fresh instances and times them, so a per-layer
   number does not depend on what else the store was doing. Every probe
   reports the median over a few rounds of the mean cost per call. *)

open Clsm_lsm
module Memtable = Clsm_core.Memtable
module Clock = Clsm_core.Clock
module Wal_writer = Clsm_wal.Wal_writer
module Table = Clsm_sstable.Table
module Table_builder = Clsm_sstable.Table_builder
module Cache = Clsm_sstable.Cache
module Block = Clsm_sstable.Block
module Refcounted = Clsm_primitives.Refcounted

let rounds = 3

(* Median over [rounds] of ns per call; [round ()] returns the timed
   body's total ns and its call count. *)
let per_call round =
  Samples.median_float
    (Array.init rounds (fun _ ->
         let ns, calls = round () in
         float_of_int ns /. float_of_int (max 1 calls)))

let time f =
  let t0 = Samples.now_ns () in
  f ();
  Samples.now_ns () - t0

let memtable ~n ~keys ~value =
  let entry = Entry.Value value in
  let fill m = Array.iteri (fun i k -> Memtable.add m ~user_key:k ~ts:(i + 1) entry) keys in
  let add_ns =
    per_call (fun () ->
        let m = Memtable.create () in
        (time (fun () -> fill m), n))
  in
  let m = Memtable.create () in
  fill m;
  let get_ns =
    per_call (fun () ->
        ( time (fun () ->
              Array.iter
                (fun k -> ignore (Memtable.get m ~user_key:k ~snap_ts:max_int : _ option))
                keys),
          n ))
  in
  (add_ns, get_ns)

let clock ~n =
  let c = Clock.create () in
  let put_ts_ns =
    per_call (fun () ->
        ( time (fun () ->
              for _ = 1 to n do
                let _, active, put = Clock.get_put_ts c in
                Clock.end_put c ~active ~put
              done),
          n ))
  in
  let snap_ts_ns =
    per_call (fun () ->
        ( time (fun () ->
              for _ = 1 to n do
                ignore (Clock.snap_ts c ~mode:Clock.Serializable : int)
              done),
          n ))
  in
  (put_ts_ns, snap_ts_ns)

let wal ~dir ~mode ~n ~record =
  let path = Filename.concat dir "probe.log" in
  per_call (fun () ->
      let w = Wal_writer.create ~mode path in
      let ns = time (fun () -> for _ = 1 to n do Wal_writer.append w record done) in
      Wal_writer.close w;
      Sys.remove path;
      (ns, n))

(* [find_last_le] on one of the workload's own tables: with a warm block
   cache, and with no cache (every call reads and decodes its block). *)
let table ~dir ~n =
  let tables =
    List.filter (fun f -> Filename.check_suffix f ".sst") (Array.to_list (Sys.readdir dir))
  in
  let size f = (Unix.stat (Filename.concat dir f)).Unix.st_size in
  match List.sort (fun a b -> compare (size b) (size a)) tables with
  | [] -> (0.0, 0.0)
  | largest :: _ ->
      let path = Filename.concat dir largest in
      let probe_keys tbl =
        let all = Table.fold (fun k _ acc -> Internal_key.user_key_of k :: acc) tbl [] in
        let all = Array.of_list all in
        let step = max 1 (Array.length all / n) in
        Array.init (min n (Array.length all)) (fun i -> Internal_key.probe all.(i * step))
      in
      let finds tbl keys () =
        Array.iter (fun k -> ignore (Table.find_last_le tbl k : _ option)) keys
      in
      let cache = Cache.create ~capacity:(64 lsl 20) ~weight:Block.size_bytes () in
      let warm = Table.open_file ~cache ~cmp:Internal_key.comparator path in
      let keys = probe_keys warm in
      finds warm keys ();
      let hit_ns = per_call (fun () -> (time (finds warm keys), Array.length keys)) in
      Table.close warm;
      let cold = Table.open_file ~cmp:Internal_key.comparator path in
      let cold_ns = per_call (fun () -> (time (finds cold keys), Array.length keys)) in
      Table.close cold;
      (hit_ns, cold_ns)

(* One L0→L1 merge of [files] fully overlapping runs: file [f] holds
   every key index congruent to [f] mod [files]. Returns MB merged per
   second. *)
let compaction ~dir ~entries ~value =
  let files = 4 in
  let cfg = Lsm_config.default in
  let alloc = Atomic.make 1 in
  let next () = Atomic.fetch_and_add alloc 1 in
  let inputs =
    List.init files (fun f ->
        let number = next () in
        let b =
          Table_builder.create ~block_size:cfg.Lsm_config.block_size
            ~filter_key_of:Internal_key.user_key_of ~cmp:Internal_key.comparator
            ~path:(Table_file.table_path ~dir number) ()
        in
        for e = 0 to entries - 1 do
          let idx = (e * files) + f in
          Table_builder.add b
            ~key:(Internal_key.make (Printf.sprintf "%010d" idx) (idx + 1))
            ~value:(Entry.encode (Entry.Value value))
        done;
        ignore (Table_builder.finish b);
        Refcounted.create ~release:Table_file.release (Table_file.open_number ~dir number))
  in
  let drop = List.iter (fun f ->
      Table_file.mark_obsolete (Refcounted.value f);
      Refcounted.retire f)
  in
  let input_bytes =
    List.fold_left (fun a f -> a + (Refcounted.value f).Table_file.size) 0 inputs
  in
  let task =
    { Compaction.src_level = 0; inputs_lo = inputs; inputs_hi = []; target_level = 1;
      drop_tombstones = true }
  in
  let ns_per_byte =
    per_call (fun () ->
        let outputs = ref [] in
        let ns =
          time (fun () ->
              outputs := Compaction.run ~cfg ~dir ~alloc_number:next ~snapshots:[] task)
        in
        drop !outputs;
        (ns, input_bytes))
  in
  drop inputs;
  1e9 /. ns_per_byte /. float_of_int (1 lsl 20)
