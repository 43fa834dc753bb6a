(* Allocation budget of the cached point-lookup path. A get whose
   blocks are all in the cache should allocate its answer and little
   else: on OCaml 5 every minor collection stops every domain, so words
   allocated per get are a cost every reader pays. [Gc.minor_words]
   counts this domain's allocation exactly, so the bounds are tight
   enough to catch a closure or a copy creeping back onto the path. *)

open Clsm_core
open Clsm_lsm
module Table = Clsm_sstable.Table

let keys = 10_000
let key i = Clsm_workload.Key_dist.key_of_index ~key_len:8 i
let value i = Printf.sprintf "%08d" i ^ String.make 248 'v'

(* The mean minor words of [f i] over [n] calls. *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let resident_store dir =
  let base = Options.default ~dir in
  let db =
    Db.open_store
      {
        base with
        Options.cache_bytes = 64 lsl 20;
        scrub_interval = 0.0;
        lsm =
          {
            base.Options.lsm with
            Lsm_config.target_file_size = 256 * 1024;
            level1_max_bytes = 1 lsl 20;
          };
      }
  in
  for c = 0 to (keys / 1000) - 1 do
    Db.write_batch db
      (List.init 1000 (fun j ->
           let i = (c * 1000) + j in
           Db.Batch_put (key i, value i)))
  done;
  Db.compact_now db;
  ignore (Db.fold (fun _ _ n -> n + 1) db 0 : int);
  db

let cached_point_lookups_allocate_their_result () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "clsm_test_alloc_%d" (Unix.getpid ()))
  in
  let db = resident_store dir in
  Alcotest.(check bool) "levels below L1 hold files" true
    (List.length (List.filter (fun n -> n > 0) (Db.level_file_counts db)) >= 2);
  let rng = Random.State.make [| 11 |] in
  let idx = Array.init 2000 (fun _ -> Random.State.int rng keys) in
  let probes = Array.map key idx in
  Array.iteri
    (fun i k -> Alcotest.(check (option string)) k (Some (value idx.(i))) (Db.get db k))
    probes;
  let get_words =
    words_per_call (Array.length probes) (fun i ->
        ignore (Sys.opaque_identity (Db.get db probes.(i)) : string option))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Db.get of a 256 B value: %.1f words <= 100" get_words)
    true (get_words <= 100.0);
  (* [find_last_le] on the store's largest table through a warm cache:
     everything beyond the returned binding counts against the budget. *)
  Db.close db;
  let largest =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sst")
    |> List.map (Filename.concat dir)
    |> List.sort (fun a b ->
           compare (Unix.stat b).Unix.st_size (Unix.stat a).Unix.st_size)
    |> List.hd
  in
  let cache =
    Clsm_sstable.Cache.create ~capacity:(64 lsl 20)
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let t = Table.open_file ~cache ~cmp:Internal_key.comparator largest in
  let in_table =
    Array.of_list (Table.fold (fun k _ acc -> Internal_key.probe (Internal_key.user_key_of k) :: acc) t [])
  in
  let probes = Array.init 2000 (fun _ -> in_table.(Random.State.int rng (Array.length in_table))) in
  let result_words =
    Array.fold_left
      (fun acc p -> acc + Obj.reachable_words (Obj.repr (Table.find_last_le t p)))
      0 probes
  in
  let find_words =
    words_per_call (Array.length probes) (fun i ->
        ignore (Sys.opaque_identity (Table.find_last_le t probes.(i)) : _ option))
  in
  let overhead = find_words -. (float_of_int result_words /. float_of_int (Array.length probes)) in
  Alcotest.(check bool)
    (Printf.sprintf "find_last_le beyond its result: %.1f words <= 40" overhead)
    true (overhead <= 40.0);
  Table.close t;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let suites =
  [
    ( "alloc.point_lookup",
      [
        Alcotest.test_case "cached lookups allocate their result" `Quick
          cached_point_lookups_allocate_their_result;
      ] );
  ]
