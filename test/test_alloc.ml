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
  let dir = Test_dirs.fresh "alloc" () in
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
  (* 75.5 words measured: the value, its entry, option and pair, and the
     lookup's closures; the bound leaves 8 words to spare. *)
  Alcotest.(check bool)
    (Printf.sprintf "Db.get of a 256 B value: %.1f words <= 84" get_words)
    true (get_words <= 84.0);
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
  Table.close t

(* The same budget on production-shaped keys: 40 B user keys sharing a
   35-byte prefix, 1 KB values. Every comparison on the path — the
   index search, the block's restart search, the version check — runs
   the word-at-a-time compare over the shared prefix, so a word boxed
   there would show here as dozens of words per lookup; a compare on
   its own allocates nothing. *)
let long_key_lookups_allocate_their_result () =
  let path = Filename.concat (Test_dirs.dir "alloc_long_keys") "t.sst" in
  let user_key i = Clsm_workload.Key_dist.key_of_index ~key_len:40 i in
  let b =
    Clsm_sstable.Table_builder.create ~cmp:Internal_key.comparator
      ~filter_key_of:Internal_key.user_key_of ~path ()
  in
  for i = 0 to 1999 do
    Clsm_sstable.Table_builder.add b
      ~key:(Internal_key.make (user_key i) 1)
      ~value:(value i ^ String.make 768 'v')
  done;
  ignore (Clsm_sstable.Table_builder.finish b : Clsm_sstable.Table_format.properties);
  let a = Internal_key.make (user_key 1234) 1 and z = Internal_key.make (user_key 1235) 1 in
  let compare_words =
    words_per_call 10_000 (fun _ ->
        ignore (Sys.opaque_identity (Internal_key.compare_encoded a z) : int))
  in
  Alcotest.(check (float 0.0)) "a 48 B compare allocates nothing" 0.0 compare_words;
  let cache =
    Clsm_sstable.Cache.create ~capacity:(64 lsl 20)
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let t = Table.open_file ~cache ~cmp:Internal_key.comparator path in
  ignore (Table.fold (fun _ _ n -> n + 1) t 0 : int);
  let rng = Random.State.make [| 19 |] in
  let probes =
    Array.init 2000 (fun _ -> Internal_key.probe (user_key (Random.State.int rng 2000)))
  in
  Array.iter (fun p -> ignore (Table.find_last_le t p : _ option)) probes;
  let result_words =
    Array.fold_left
      (fun acc p -> acc + Obj.reachable_words (Obj.repr (Table.find_last_le t p)))
      0 probes
  in
  let find_words =
    words_per_call (Array.length probes) (fun i ->
        ignore (Sys.opaque_identity (Table.find_last_le t probes.(i)) : _ option))
  in
  let overhead =
    find_words -. (float_of_int result_words /. float_of_int (Array.length probes))
  in
  Alcotest.(check bool)
    (Printf.sprintf "find_last_le on 40 B keys beyond its result: %.1f words <= 40"
       overhead)
    true (overhead <= 40.0);
  Table.close t

(* Allocation budget of a cached scan. Each row of a [Db.range] should
   cost the result's own words — its key, its value, its tuple and list
   cell — plus a small constant: a value is copied once, from the block
   or the memtable into the result. And opening an iterator and seeking
   it should cost the same whatever the number of files in a level: a
   seek enters one file per level. *)
let scan_keys = 4000
let scan_value i = Printf.sprintf "%08d" i ^ String.make 1016 's'

let scan_store dir ~target_file_size =
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
            Lsm_config.target_file_size;
            level1_max_bytes = 64 lsl 20;
          };
      }
  in
  for c = 0 to (scan_keys / 500) - 1 do
    Db.write_batch db
      (List.init 500 (fun j ->
           let i = (c * 500) + j in
           Db.Batch_put (key i, scan_value i)))
  done;
  Db.compact_now db;
  ignore (Db.fold (fun _ _ n -> n + 1) db 0 : int);
  db

let with_scan_store name ~target_file_size f =
  let dir = Test_dirs.fresh ("alloc_" ^ name) () in
  let db = scan_store dir ~target_file_size in
  Fun.protect ~finally:(fun () -> Db.close db) (fun () -> f db)

let rows = 50

let cached_scan_rows_allocate_their_result () =
  with_scan_store "rows" ~target_file_size:(512 * 1024) (fun db ->
      let rng = Random.State.make [| 13 |] in
      let starts =
        Array.init 400 (fun _ -> key (Random.State.int rng (scan_keys - rows)))
      in
      let results = Array.map (fun k -> Db.range ~start:k ~limit:rows db) starts in
      Alcotest.(check bool) "full pages" true
        (Array.for_all (fun r -> List.length r = rows) results);
      let result_words =
        Array.fold_left (fun acc r -> acc + Obj.reachable_words (Obj.repr r)) 0 results
      in
      let words =
        words_per_call (Array.length starts) (fun i ->
            ignore (Sys.opaque_identity (Db.range ~start:starts.(i) ~limit:rows db)))
      in
      let per_row =
        (words -. (float_of_int result_words /. float_of_int (Array.length starts)))
        /. float_of_int rows
      in
      Alcotest.(check bool)
        (Printf.sprintf "a row of 1 KB beyond its result: %.1f words <= 40" per_row)
        true (per_row <= 40.0))

let seek_words db =
  let rng = Random.State.make [| 17 |] in
  let starts = Array.init 400 (fun _ -> key (Random.State.int rng scan_keys)) in
  words_per_call (Array.length starts) (fun i ->
      let it = Db.iterator db in
      Db.iter_seek it starts.(i);
      Db.iter_close it)

let seek_cost_ignores_file_count () =
  let few, many =
    ( with_scan_store "few" ~target_file_size:(2 lsl 20) (fun db ->
          (Db.level_file_counts db, seek_words db)),
      with_scan_store "many" ~target_file_size:(100 * 1024) (fun db ->
          (Db.level_file_counts db, seek_words db)) )
  in
  let l1_files (levels, _) = List.nth levels 1 in
  Alcotest.(check bool)
    (Printf.sprintf "L1 holds %d and %d files" (l1_files few) (l1_files many))
    true
    (l1_files few <= 4 && l1_files many >= 40);
  Alcotest.(check bool)
    (Printf.sprintf "iterator + seek + close: %.0f words over %d files, %.0f over %d"
       (snd many) (l1_files many) (snd few) (l1_files few))
    true
    (snd many <= snd few +. 16.0)

(* Major-heap words this domain allocated directly (promotions from the
   minor heap excluded): where a block image of 4 KB lands. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A point lookup that misses the block cache reads its block once:
   [rf_read]'s image is verified and parsed where it lies and searched
   as it lies, so the lookup puts one image on the major heap and a few
   words, not an image and a copy of its payload, and builds nothing
   beside it. A table opened without a cache reads the block on every
   lookup, under the same budget, and allocates no more than a cached
   lookup beyond its result on the minor heap. *)
let block_miss_allocates_one_image () =
  let path = Filename.concat (Test_dirs.dir "alloc_miss") "t.sst" in
  let b =
    Clsm_sstable.Table_builder.create ~cmp:Clsm_sstable.Comparator.bytewise ~path ()
  in
  for i = 0 to 1999 do
    Clsm_sstable.Table_builder.add b ~key:(key i) ~value:(value i)
  done;
  ignore (Clsm_sstable.Table_builder.finish b : Clsm_sstable.Table_format.properties);
  let cache =
    Clsm_sstable.Cache.create ~capacity:(64 lsl 20)
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let cached = Table.open_file ~cache ~cmp:Clsm_sstable.Comparator.bytewise path in
  let uncached = Table.open_file ~cmp:Clsm_sstable.Comparator.bytewise path in
  let anchors = Table.index_anchors cached in
  Alcotest.(check bool) "4 KB blocks" true
    (List.length anchors > 20 && List.for_all (fun (_, size) -> size >= 4096) anchors);
  let major_words t last_key =
    Gc.minor ();
    let w0 = direct_major_words () in
    let found = Table.find_last_le t last_key in
    let words = direct_major_words () -. w0 in
    Alcotest.(check (option string)) "found" (Some last_key) (Option.map fst found);
    words
  in
  List.iteri
    (fun i (last_key, size) ->
      if i mod 5 = 0 then begin
        (* The image and its header. *)
        let image = ((size + Clsm_sstable.Table_format.block_trailer_length) / 8) + 2 in
        let within what words =
          Alcotest.(check bool)
            (Printf.sprintf "block %d, %s: %.0f major words <= image %d + 32" i what
               words image)
            true
            (words <= float_of_int (image + 32))
        in
        let misses = (Clsm_sstable.Cache.stats cache).Clsm_sstable.Cache.misses in
        within "a cache miss" (major_words cached last_key);
        Alcotest.(check int) "a miss" (misses + 1)
          (Clsm_sstable.Cache.stats cache).Clsm_sstable.Cache.misses;
        within "no cache" (major_words uncached last_key);
        let result = Table.find_last_le uncached last_key in
        let minor =
          words_per_call 1 (fun _ ->
              ignore (Sys.opaque_identity (Table.find_last_le uncached last_key)))
          -. float_of_int (Obj.reachable_words (Obj.repr result))
        in
        Alcotest.(check bool)
          (Printf.sprintf "block %d, no cache: %.0f minor words beyond the result <= 40" i
             minor)
          true (minor <= 40.0)
      end)
    anchors;
  Table.close cached;
  Table.close uncached

let suites =
  [
    ( "alloc.point_lookup",
      [
        Alcotest.test_case "cached lookups allocate their result" `Quick
          cached_point_lookups_allocate_their_result;
        Alcotest.test_case "40 B-key lookups allocate their result" `Quick
          long_key_lookups_allocate_their_result;
      ] );
    ( "alloc.scan",
      [
        Alcotest.test_case "cached scan rows allocate their result" `Quick
          cached_scan_rows_allocate_their_result;
        Alcotest.test_case "seek cost ignores the file count" `Quick
          seek_cost_ignores_file_count;
      ] );
    ( "alloc.block_miss",
      [
        Alcotest.test_case "a missed block is read into one image" `Quick
          block_miss_allocates_one_image;
      ] );
  ]
