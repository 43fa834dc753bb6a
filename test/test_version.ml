(* Direct unit tests of the disk-component substrate: Version.get across
   constructed level layouts, compaction picking, and Version.apply of
   version edits. *)

open Clsm_lsm
open Clsm_primitives

let tmp_dir = Test_dirs.dir "version"

let next_number = ref 1000

(* Build a table file of (user_key, ts, value-or-tombstone) triples. *)
let make_file ?cache ?env entries =
  incr next_number;
  let number = !next_number in
  let b =
    Clsm_sstable.Table_builder.create ~block_size:512
      ~filter_key_of:Internal_key.user_key_of ~cmp:Internal_key.comparator
      ~path:(Table_file.table_path ~dir:tmp_dir number)
      ()
  in
  List.iter
    (fun (k, ts, v) ->
      let entry = match v with Some s -> Entry.Value s | None -> Entry.Tombstone in
      Clsm_sstable.Table_builder.add b ~key:(Internal_key.make k ts)
        ~value:(Entry.encode entry))
    (List.sort
       (fun (k1, t1, _) (k2, t2, _) -> compare (k1, t1) (k2, t2))
       entries);
  ignore (Clsm_sstable.Table_builder.finish b);
  Refcounted.create ~release:Table_file.release
    (Table_file.open_number ?cache ?env ~dir:tmp_dir number)

let entry_testable =
  Alcotest.testable
    (fun ppf -> function
      | Some (ts, Entry.Value v) -> Format.fprintf ppf "Some(%d, %S)" ts v
      | Some (ts, Entry.Tombstone) -> Format.fprintf ppf "Some(%d, ⊥)" ts
      | None -> Format.fprintf ppf "None")
    ( = )

let get_l0_overlap () =
  (* L0 files overlap; the newest version across files must win. *)
  let f_old = make_file [ ("k", 5, Some "old"); ("other", 1, Some "x") ] in
  let f_new = make_file [ ("k", 9, Some "new") ] in
  let v = Version.create ~l0:[ f_new; f_old ] ~levels:(Array.make 2 []) in
  Alcotest.check entry_testable "newest wins"
    (Some (9, Entry.Value "new"))
    (Version.get v ~user_key:"k" ~snap_ts:Internal_key.max_ts);
  Alcotest.check entry_testable "snapshot picks old"
    (Some (5, Entry.Value "old"))
    (Version.get v ~user_key:"k" ~snap_ts:7);
  Alcotest.check entry_testable "below all" None
    (Version.get v ~user_key:"k" ~snap_ts:3);
  Alcotest.check entry_testable "other key" (Some (1, Entry.Value "x"))
    (Version.get v ~user_key:"other" ~snap_ts:Internal_key.max_ts);
  Version.release v;
  List.iter Refcounted.retire [ f_old; f_new ]

let get_level_order () =
  (* L0 shadows L1; L1 shadows L2 for the same key. *)
  let l0 = make_file [ ("k", 30, Some "l0") ] in
  let l1 = make_file [ ("k", 20, Some "l1") ] in
  let l2 = make_file [ ("k", 10, Some "l2") ] in
  let levels = Array.make 3 [] in
  levels.(0) <- [ l1 ];
  levels.(1) <- [ l2 ];
  let v = Version.create ~l0:[ l0 ] ~levels in
  Alcotest.check entry_testable "l0 wins" (Some (30, Entry.Value "l0"))
    (Version.get v ~user_key:"k" ~snap_ts:Internal_key.max_ts);
  Alcotest.check entry_testable "l1 for snap 25" (Some (20, Entry.Value "l1"))
    (Version.get v ~user_key:"k" ~snap_ts:25);
  Alcotest.check entry_testable "l2 for snap 15" (Some (10, Entry.Value "l2"))
    (Version.get v ~user_key:"k" ~snap_ts:15);
  Version.release v;
  List.iter Refcounted.retire [ l0; l1; l2 ]

let get_key_straddles_files () =
  (* Versions of one key split across two adjacent files of a level. *)
  let fa = make_file [ ("j", 1, Some "ja"); ("k", 5, Some "ka") ] in
  let fb = make_file [ ("k", 9, Some "kb"); ("m", 1, Some "ma") ] in
  let levels = Array.make 2 [] in
  levels.(0) <- [ fa; fb ];
  let v = Version.create ~l0:[] ~levels in
  Alcotest.check entry_testable "newest in later file"
    (Some (9, Entry.Value "kb"))
    (Version.get v ~user_key:"k" ~snap_ts:Internal_key.max_ts);
  Alcotest.check entry_testable "older in earlier file"
    (Some (5, Entry.Value "ka"))
    (Version.get v ~user_key:"k" ~snap_ts:7);
  Version.release v;
  List.iter Refcounted.retire [ fa; fb ]

let get_tombstone_shadows () =
  let f = make_file [ ("k", 5, Some "v"); ("k", 8, None) ] in
  let v = Version.create ~l0:[ f ] ~levels:(Array.make 2 []) in
  Alcotest.check entry_testable "tombstone returned"
    (Some (8, Entry.Tombstone))
    (Version.get v ~user_key:"k" ~snap_ts:Internal_key.max_ts);
  Version.release v;
  Refcounted.retire f

let iters_cover_everything () =
  let f1 = make_file [ ("a", 1, Some "1") ] in
  let f2 = make_file [ ("b", 2, Some "2") ] in
  let f3 = make_file [ ("c", 3, Some "3") ] in
  let levels = Array.make 2 [] in
  levels.(0) <- [ f2; f3 ];
  let v = Version.create ~l0:[ f1 ] ~levels in
  let merged =
    Merge_iter.merge ~cmp:Internal_key.compare_encoded (Version.iters v)
  in
  let keys =
    Iter.fold (fun k _ acc -> Internal_key.user_key_of k :: acc) merged []
    |> List.rev
  in
  Alcotest.(check (list string)) "all user keys" [ "a"; "b"; "c" ] keys;
  Version.release v;
  List.iter Refcounted.retire [ f1; f2; f3 ]

let refcount_lifecycle () =
  let f = make_file [ ("k", 1, Some "v") ] in
  let path = Clsm_sstable.Table.path (Refcounted.value f).Table_file.table in
  let v1 = Version.create ~l0:[ f ] ~levels:(Array.make 2 []) in
  let v2 = Version.create ~l0:[ f ] ~levels:(Array.make 2 []) in
  Refcounted.retire f;
  (* Both versions hold the file. *)
  Version.release v1;
  Alcotest.(check bool) "file alive under v2" true (Sys.file_exists path);
  Table_file.mark_obsolete (Refcounted.value f);
  Version.release v2;
  Alcotest.(check bool) "file deleted after last release" false
    (Sys.file_exists path)

(* ---------- Compaction.pick / apply ---------- *)

let small_cfg =
  {
    Lsm_config.default with
    Lsm_config.l0_compaction_trigger = 2;
    level1_max_bytes = 1024;
    level_size_multiplier = 10;
  }

let pick_l0 () =
  let f1 = make_file [ ("a", 1, Some "1") ] in
  let f2 = make_file [ ("b", 2, Some "2") ] in
  let l1f = make_file [ ("a", 0, Some "old"); ("z", 0, Some "zz") ] in
  let levels = Array.make 3 [] in
  levels.(0) <- [ l1f ];
  let v = Version.create ~l0:[ f2; f1 ] ~levels in
  (match Compaction.pick ~cfg:small_cfg v with
  | Some task ->
      Alcotest.(check int) "src level" 0 task.Compaction.src_level;
      Alcotest.(check int) "both l0 files" 2
        (List.length task.Compaction.inputs_lo);
      Alcotest.(check int) "overlapping l1" 1
        (List.length task.Compaction.inputs_hi);
      Alcotest.(check int) "target" 1 task.Compaction.target_level;
      Alcotest.(check bool) "not bottom (l1 occupied is target, deeper empty)"
        true task.Compaction.drop_tombstones
  | None -> Alcotest.fail "expected a task");
  Version.release v;
  List.iter Refcounted.retire [ f1; f2; l1f ]

let pick_none_when_quiet () =
  let f1 = make_file [ ("a", 1, Some "1") ] in
  let v = Version.create ~l0:[ f1 ] ~levels:(Array.make 3 []) in
  Alcotest.(check bool) "no task" true (Compaction.pick ~cfg:small_cfg v = None);
  Version.release v;
  Refcounted.retire f1

let run_and_apply_l0_merge () =
  let f1 = make_file [ ("k", 5, Some "old"); ("a", 1, Some "a1") ] in
  let f2 = make_file [ ("k", 9, Some "new") ] in
  let v = Version.create ~l0:[ f2; f1 ] ~levels:(Array.make 3 []) in
  match Compaction.pick ~cfg:small_cfg v with
  | None -> Alcotest.fail "expected task"
  | Some task ->
      let n = ref 9000 in
      let outputs =
        Compaction.run ~cfg:small_cfg ~dir:tmp_dir
          ~alloc_number:(fun () -> incr n; !n)
          ~snapshots:[] task
      in
      let v' = Version.apply v (Compaction.edit_of_task task ~outputs) in
      List.iter Refcounted.retire outputs;
      Alcotest.(check int) "l0 emptied" 0 (Version.level_file_count v' 0);
      Alcotest.(check bool) "l1 populated" true
        (Version.level_file_count v' 1 > 0);
      (* Only the newest version of k survives (no snapshots). *)
      Alcotest.check entry_testable "k newest" (Some (9, Entry.Value "new"))
        (Version.get v' ~user_key:"k" ~snap_ts:Internal_key.max_ts);
      Alcotest.check entry_testable "old version GCed" None
        (Version.get v' ~user_key:"k" ~snap_ts:6);
      Alcotest.check entry_testable "a survives" (Some (1, Entry.Value "a1"))
        (Version.get v' ~user_key:"a" ~snap_ts:Internal_key.max_ts);
      Version.release v';
      Version.release v;
      List.iter Refcounted.retire [ f1; f2 ]

let apply_preserves_new_l0 () =
  (* Files flushed between pick and apply must survive the apply. *)
  let f1 = make_file [ ("a", 1, Some "1") ] in
  let f2 = make_file [ ("b", 2, Some "2") ] in
  let v = Version.create ~l0:[ f2; f1 ] ~levels:(Array.make 3 []) in
  match Compaction.pick ~cfg:small_cfg v with
  | None -> Alcotest.fail "expected task"
  | Some task ->
      (* a flush lands while the compaction "runs" *)
      let f3 = make_file [ ("c", 3, Some "3") ] in
      let v2 = Version.apply v { Version_edit.empty with added = [ (0, f3) ] } in
      let n = ref 9500 in
      let outputs =
        Compaction.run ~cfg:small_cfg ~dir:tmp_dir
          ~alloc_number:(fun () -> incr n; !n)
          ~snapshots:[] task
      in
      let v3 = Version.apply v2 (Compaction.edit_of_task task ~outputs) in
      List.iter Refcounted.retire outputs;
      Alcotest.(check int) "new flush kept in l0" 1 (Version.level_file_count v3 0);
      Alcotest.check entry_testable "c readable" (Some (3, Entry.Value "3"))
        (Version.get v3 ~user_key:"c" ~snap_ts:Internal_key.max_ts);
      Version.release v;
      Version.release v2;
      Version.release v3;
      List.iter Refcounted.retire [ f1; f2; f3 ]

(* ---------- compaction and the block cache ---------- *)

let cache_entries prefix n =
  List.init n (fun i ->
      (Printf.sprintf "%s%04d" prefix i, i + 1, Some (String.make 100 prefix.[0])))

let table_of f = (Refcounted.value f).Table_file.table

(* Every data block of [f]'s table through the cache: returns the
   misses this took. *)
let fold_misses cache f =
  let before = (Clsm_sstable.Cache.stats cache).Clsm_sstable.Cache.misses in
  ignore (Clsm_sstable.Table.fold (fun _ _ n -> n + 1) (table_of f) 0 : int);
  (Clsm_sstable.Cache.stats cache).Clsm_sstable.Cache.misses - before

let l0_task inputs =
  {
    Compaction.src_level = 0;
    inputs_lo = inputs;
    inputs_hi = [];
    target_level = 1;
    drop_tombstones = false;
  }

(* A merge reads its inputs past the block cache: a warmed table A keeps
   every block resident in a cache with room for A and little else, and
   the counters do not move, though the inputs B and C hold eight times
   A's data and nothing of theirs was resident. *)
let compaction_leaves_cache_alone () =
  let module Cache = Clsm_sstable.Cache in
  let probe =
    Cache.create ~shards:1 ~capacity:(64 lsl 20)
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let a_entries = cache_entries "a" 100 in
  let b_entries = cache_entries "b" 400 and c_entries = cache_entries "c" 400 in
  let probes = List.map (make_file ~cache:probe) [ a_entries; b_entries; c_entries ] in
  let reserved = (Cache.stats probe).Cache.weight in
  ignore (fold_misses probe (List.hd probes) : int);
  let a_weight = (Cache.stats probe).Cache.weight - reserved in
  List.iter Refcounted.retire probes;
  (* Room for A's blocks, twice the reservations of A, B and C (the
     outputs reserve about what B and C do), and 16 KB: a sixth of B and
     C's blocks. *)
  let cache =
    Cache.create ~shards:1 ~readahead:8
      ~capacity:(a_weight + (2 * reserved) + (16 * 1024))
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let a = make_file ~cache a_entries in
  let b = make_file ~cache b_entries and c = make_file ~cache c_entries in
  Alcotest.(check bool) "A spans blocks" true
    (List.length (Clsm_sstable.Table.index_anchors (table_of a)) > 4);
  ignore (fold_misses cache a : int);
  Alcotest.(check int) "A resident" 0 (fold_misses cache a);
  let before = Cache.stats cache and cardinal = Cache.cardinal cache in
  let n = ref 9700 in
  let outputs =
    Compaction.run ~cfg:small_cfg ~dir:tmp_dir ~cache
      ~alloc_number:(fun () -> incr n; !n)
      ~snapshots:[] (l0_task [ c; b ])
  in
  let after = Cache.stats cache in
  Alcotest.(check (list int)) "hits, misses, evictions, readahead blocks"
    Cache.[ before.hits; before.misses; before.evictions; before.readahead_blocks ]
    Cache.[ after.hits; after.misses; after.evictions; after.readahead_blocks ];
  Alcotest.(check int) "resident blocks" cardinal (Cache.cardinal cache);
  Alcotest.(check int) "one reservation per output"
    (before.Cache.pins + List.length outputs) after.Cache.pins;
  List.iter Refcounted.retire [ b; c ];
  Alcotest.(check int) "retired inputs leave their reservations"
    (after.Cache.pins - 2) (Cache.stats cache).Cache.pins;
  Alcotest.(check int) "resident blocks after retiring the inputs" cardinal
    (Cache.cardinal cache);
  Alcotest.(check int) "every block of A still resident" 0 (fold_misses cache a);
  let encode (k, ts, v) =
    (Internal_key.make k ts, Entry.encode (Entry.Value (Option.get v)))
  in
  Alcotest.(check (list (pair string string)))
    "the output is the inputs' union"
    (List.map encode (b_entries @ c_entries))
    (List.concat_map (fun f -> Clsm_sstable.Table.to_list (table_of f)) outputs);
  List.iter Refcounted.retire (a :: outputs)

(* A rotten block in a streamed input still aborts the merge with the
   typed corruption that names the input. The rot is the bit-rot
   injector's, armed after the tables opened: every block read flips a
   bit. *)
let compaction_streamed_rot_is_typed () =
  let fault = Clsm_env.Faulty_env.create ~seed:5 () in
  let cache =
    Clsm_sstable.Cache.create ~capacity:(1 lsl 20)
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  let b =
    make_file ~cache ~env:(Clsm_env.Faulty_env.env fault) (cache_entries "b" 200)
  in
  let c = make_file ~cache (cache_entries "c" 200) in
  Clsm_env.Faulty_env.set_fault_rates fault ~corrupt_read_1_in:1 ();
  let n = ref 9800 in
  (match
     Compaction.run ~cfg:small_cfg ~dir:tmp_dir ~cache
       ~alloc_number:(fun () -> incr n; !n)
       ~snapshots:[] (l0_task [ c; b ])
   with
  | _ -> Alcotest.fail "a rotten input must abort the merge"
  | exception Table_file.Corruption { number; _ } ->
      Alcotest.(check int) "names the rotten input"
        (Refcounted.value b).Table_file.number number);
  Alcotest.(check bool) "the rot was injected" true
    (Clsm_env.Faulty_env.injected_corruptions fault > 0);
  Clsm_env.Faulty_env.set_fault_rates fault ~corrupt_read_1_in:0 ();
  List.iter Refcounted.retire [ b; c ]

(* ---------- Compaction.is_trivial_move ---------- *)

let numbers files = List.map (fun f -> (Refcounted.value f).Table_file.number) files

(* The task [Compaction.pick] makes of [v] (an L0→L1 task: two L0 files
   reach [small_cfg]'s trigger), with its move verdict under [cfg]. *)
let pick_move ?(cfg = small_cfg) v =
  match Compaction.pick ~cfg v with
  | None -> Alcotest.fail "expected a task"
  | Some task -> (task, Compaction.is_trivial_move ~cfg v task)

let move_disjoint_l0 () =
  let f1 = make_file [ ("a", 1, Some "1"); ("c", 2, None) ] in
  let f2 = make_file [ ("d", 3, Some "3"); ("f", 4, Some "4") ] in
  let v = Version.create ~l0:[ f2; f1 ] ~levels:(Array.make 3 []) in
  let task, move = pick_move v in
  Alcotest.(check bool) "disjoint L0 files over an empty L1 move" true move;
  let v' =
    Version.apply v (Compaction.edit_of_task task ~outputs:task.Compaction.inputs_lo)
  in
  Alcotest.(check int) "l0 emptied" 0 (Version.level_file_count v' 0);
  Alcotest.(check (list int)) "the same tables, in key order, at L1"
    (numbers [ f1; f2 ]) (numbers v'.Version.levels.(0));
  Alcotest.check entry_testable "the tombstone rides along"
    (Some (2, Entry.Tombstone))
    (Version.get v' ~user_key:"c" ~snap_ts:Internal_key.max_ts);
  Alcotest.check entry_testable "f readable" (Some (4, Entry.Value "4"))
    (Version.get v' ~user_key:"f" ~snap_ts:Internal_key.max_ts);
  Alcotest.(check (list string)) "L1 valid" [] (Version.validate v');
  Version.release v';
  Version.release v;
  List.iter Refcounted.retire [ f1; f2 ]

let no_move_shared_user_key () =
  (* internal-key disjoint (k@5 < k@9), but one user key in both *)
  let f1 = make_file [ ("a", 1, Some "1"); ("k", 5, Some "old") ] in
  let f2 = make_file [ ("k", 9, Some "new"); ("z", 2, Some "2") ] in
  let v = Version.create ~l0:[ f2; f1 ] ~levels:(Array.make 3 []) in
  let task, move = pick_move v in
  Alcotest.(check int) "nothing at L1" 0 (List.length task.Compaction.inputs_hi);
  Alcotest.(check bool) "L0 files sharing a user key merge" false move;
  Version.release v;
  List.iter Refcounted.retire [ f1; f2 ]

let no_move_target_inside_span () =
  (* the L1 file lies between the inputs: neither input overlaps it, but
     their union span does *)
  let f1 = make_file [ ("a", 1, Some "1") ] in
  let f2 = make_file [ ("z", 2, Some "2") ] in
  let l1 = make_file [ ("m", 0, Some "m") ] in
  let levels = Array.make 3 [] in
  levels.(0) <- [ l1 ];
  let v = Version.create ~l0:[ f2; f1 ] ~levels in
  let task, move = pick_move v in
  Alcotest.(check (list int)) "the L1 file is a target input" (numbers [ l1 ])
    (numbers task.Compaction.inputs_hi);
  Alcotest.(check bool) "a target file inside the span blocks the move" false
    move;
  Version.release v;
  List.iter Refcounted.retire [ f1; f2; l1 ]

let no_move_grandparent_overlap () =
  let f1 = make_file [ ("a", 1, Some "1") ] in
  let f2 = make_file [ ("b", 2, Some "2") ] in
  let gp =
    make_file (List.init 20 (fun i -> (Printf.sprintf "a%02d" i, 0, Some (String.make 100 'g'))))
  in
  let size = (Refcounted.value gp).Table_file.size in
  let levels = Array.make 3 [] in
  levels.(1) <- [ gp ];
  let v = Version.create ~l0:[ f2; f1 ] ~levels in
  (* the L2 file is exactly ten target files, then just over *)
  let at_bound = { small_cfg with Lsm_config.target_file_size = size / 10 + 1 } in
  let over = { small_cfg with Lsm_config.target_file_size = size / 10 - 1 } in
  Alcotest.(check bool) "grandparent overlap within 10 target files moves" true
    (snd (pick_move ~cfg:at_bound v));
  Alcotest.(check bool) "grandparent overlap over 10 target files merges" false
    (snd (pick_move ~cfg:over v));
  Version.release v;
  List.iter Refcounted.retire [ f1; f2; gp ]

let prop_write_sorted_run_roundtrip =
  (* Random multi-version histories through the GC'ing table writer: with
     no snapshots, reading the outputs back must yield exactly the newest
     non-tombstone version of each key, in order. *)
  QCheck.Test.make ~name:"write_sorted_run = newest visible version" ~count:40
    QCheck.(
      list_of_size
        Gen.(1 -- 60)
        (triple (int_range 0 15) (int_range 1 200) bool))
    (fun raw ->
      let entries =
        List.sort_uniq
          (fun (k1, t1, _) (k2, t2, _) -> compare (k1, t1) (k2, t2))
          raw
      in
      QCheck.assume (entries <> []);
      let iter_input =
        Iter.of_sorted_list ~cmp:Internal_key.compare_encoded
          (List.map
             (fun (k, ts, tomb) ->
               ( Internal_key.make (Printf.sprintf "k%02d" k) ts,
                 Entry.encode
                   (if tomb then Entry.Tombstone
                    else Entry.Value (Printf.sprintf "v%d" ts)) ))
             entries)
      in
      let n = ref 60000 in
      let outputs =
        Compaction.write_sorted_run ~cfg:small_cfg ~dir:tmp_dir
          ~alloc_number:(fun () -> incr n; !n)
          ~snapshots:[] ~drop_tombstones:true iter_input
      in
      (* expected: newest version per user key, tombstones dropped *)
      let module SM = Map.Make (String) in
      let newest =
        List.fold_left
          (fun m (k, ts, tomb) ->
            let key = Printf.sprintf "k%02d" k in
            match SM.find_opt key m with
            | Some (ts', _) when ts' > ts -> m
            | _ -> SM.add key (ts, tomb) m)
          SM.empty entries
      in
      let expected =
        SM.bindings newest
        |> List.filter_map (fun (k, (ts, tomb)) ->
               if tomb then None else Some (k, ts))
      in
      let got =
        List.concat_map
          (fun f ->
            Clsm_sstable.Table.fold
              (fun ik _ acc ->
                (Internal_key.user_key_of ik, Internal_key.ts_of ik) :: acc)
              (Refcounted.value f).Table_file.table [])
          outputs
        |> List.rev
      in
      List.iter
        (fun f ->
          Table_file.mark_obsolete (Refcounted.value f);
          Refcounted.retire f)
        outputs;
      got = expected)

(* ---------- Version.apply ---------- *)

let key i = Printf.sprintf "k%03d" i
let key_index uk = int_of_string (String.sub uk 1 3)

(* A table spanning user keys [lo, hi]. *)
let span_file (lo, hi) =
  let lo, hi = (min lo hi, max lo hi) in
  make_file
    (if lo = hi then [ (key lo, 1, Some "v") ]
     else [ (key lo, 1, Some "lo"); (key hi, 1, Some "hi") ])

let number f = (Refcounted.value f).Table_file.number
let files_of v = v.Version.l0 @ List.concat (Array.to_list v.Version.levels)

let level_numbers v level =
  List.map number
    (if level = 0 then v.Version.l0 else v.Version.levels.(level - 1))

(* Sorted, pairwise-disjoint spans from arbitrary cut points. *)
let disjoint_spans points =
  let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in
  pairs (List.sort_uniq compare points)

let sorted_by_smallest files =
  let smallest f = (Refcounted.value f).Table_file.smallest in
  let rec go = function
    | a :: (b :: _ as rest) ->
        Internal_key.compare_encoded (smallest a) (smallest b) <= 0 && go rest
    | [ _ ] | [] -> true
  in
  go files

(* A compaction every time there is anything to compact. *)
let eager_cfg =
  { small_cfg with Lsm_config.l0_compaction_trigger = 1; level1_max_bytes = 1 }

(* Two output spans covering the inputs' user-key range, as a merge of
   them would produce. *)
let task_outputs task =
  match Version.files_range (task.Compaction.inputs_lo @ task.Compaction.inputs_hi) with
  | None -> []
  | Some (lo, hi) ->
      let lo = key_index (Internal_key.user_key_of lo)
      and hi = key_index (Internal_key.user_key_of hi) in
      let mid = (lo + hi) / 2 in
      List.map span_file (if lo = hi then [ (lo, hi) ] else [ (lo, mid); (mid + 1, hi) ])

let prop_version_apply =
  QCheck.Test.make ~name:"Version.apply = (old - removed) + added" ~count:25
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 3) (pair (int_range 0 99) (int_range 0 99)))
        (pair
           (list_of_size Gen.(0 -- 8) (int_range 0 99))
           (list_of_size Gen.(0 -- 8) (int_range 0 99)))
        (list_of_size Gen.(0 -- 8) bool)
        (list_of_size Gen.(0 -- 3)
           (pair (int_range 0 3) (pair (int_range 0 99) (int_range 0 99)))))
    (fun (l0_spans, (l1_cuts, l2_cuts), mask, adds) ->
      let l0 = List.map span_file l0_spans in
      let levels =
        [|
          List.map span_file (disjoint_spans l1_cuts);
          List.map span_file (disjoint_spans l2_cuts);
          [];
        |]
      in
      let base = l0 @ List.concat (Array.to_list levels) in
      let added = List.map (fun (level, span) -> (level, span_file span)) adds in
      let everything = base @ List.map snd added in
      let counts () = List.map Refcounted.count everything in
      let before = counts () in
      let v = Version.create ~l0 ~levels in
      let removed =
        List.filteri (fun i _ -> List.nth_opt mask i = Some true) base
        |> List.map number
      in
      let v' = Version.apply v { Version_edit.removed; added } in
      (* exactly (old - removed) + added, level by level; new L0 files
         in front, deeper levels in smallest-key order *)
      let exact level =
        let kept =
          List.filter (fun n -> not (List.mem n removed)) (level_numbers v level)
        in
        let fresh =
          List.filter_map
            (fun (l, f) -> if l = level then Some (number f) else None)
            added
        in
        if level = 0 then level_numbers v' 0 = fresh @ kept
        else
          List.sort compare (level_numbers v' level)
          = List.sort compare (kept @ fresh)
          && sorted_by_smallest v'.Version.levels.(level - 1)
      in
      let edit_ok = List.for_all exact [ 0; 1; 2; 3 ] in
      (* a compaction task's edit keeps levels >= 1 sorted and disjoint *)
      let task_ok =
        match Compaction.pick ~cfg:eager_cfg v with
        | None -> true
        | Some task ->
            let outputs = task_outputs task in
            let v2 = Version.apply v (Compaction.edit_of_task task ~outputs) in
            let ok = Version.validate v2 = [] in
            Version.release v2;
            List.iter
              (fun f ->
                Table_file.mark_obsolete (Refcounted.value f);
                Refcounted.retire f)
              outputs;
            ok
      in
      Version.release v;
      Version.release v';
      let refs_ok = counts () = before in
      List.iter
        (fun f ->
          Table_file.mark_obsolete (Refcounted.value f);
          Refcounted.retire f)
        everything;
      edit_ok && task_ok && refs_ok)

let suites =
  [
    ( "lsm.version",
      [
        Alcotest.test_case "L0 overlap resolution" `Quick get_l0_overlap;
        Alcotest.test_case "level search order" `Quick get_level_order;
        Alcotest.test_case "key straddles files" `Quick get_key_straddles_files;
        Alcotest.test_case "tombstone shadows" `Quick get_tombstone_shadows;
        Alcotest.test_case "iters cover everything" `Quick iters_cover_everything;
        Alcotest.test_case "refcount lifecycle" `Quick refcount_lifecycle;
      ] );
    ( "lsm.compaction",
      [
        Alcotest.test_case "pick L0" `Quick pick_l0;
        Alcotest.test_case "pick none when quiet" `Quick pick_none_when_quiet;
        Alcotest.test_case "run + apply L0 merge" `Quick run_and_apply_l0_merge;
        Alcotest.test_case "apply preserves new L0" `Quick apply_preserves_new_l0;
        Alcotest.test_case "move: disjoint L0 into empty L1" `Quick
          move_disjoint_l0;
        Alcotest.test_case "no move: L0 inputs share a user key" `Quick
          no_move_shared_user_key;
        Alcotest.test_case "no move: target file inside the span" `Quick
          no_move_target_inside_span;
        Alcotest.test_case "no move: grandparent overlap" `Quick
          no_move_grandparent_overlap;
        Alcotest.test_case "inputs stream past the block cache" `Quick
          compaction_leaves_cache_alone;
        Alcotest.test_case "a rotten streamed input is typed" `Quick
          compaction_streamed_rot_is_typed;
      ] );
    ( "lsm.compaction.props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_write_sorted_run_roundtrip;
          prop_version_apply;
        ] );
  ]
