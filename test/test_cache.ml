(* The read-path cache contracts: lock-free hits, singleflight miss
   dedup, reservation accounting, and table-iterator readahead (including
   degradation under injected IO faults). *)

open Clsm_sstable
module Env = Clsm_env.Env

let tmp_dir = Test_dirs.dir "cache"

let tmp_path name = Filename.concat tmp_dir name

let sorted_pairs n =
  List.init n (fun i -> (Printf.sprintf "key%06d" i, Printf.sprintf "val%d" i))

let build_table ?(block_size = 256) name pairs =
  let path = tmp_path name in
  let b = Table_builder.create ~block_size ~cmp:Comparator.bytewise ~path () in
  List.iter (fun (k, v) -> Table_builder.add b ~key:k ~value:v) pairs;
  ignore (Table_builder.finish b);
  path

(* ---------- lock-free hit path ---------- *)

(* The structural proof that hits never take the shard mutex: hold the
   (only) shard's mutex hostage on another domain and do a [find] — on the
   old mutex-per-shard design this deadlocks until the hostage releases;
   on the CLOCK design it completes immediately. *)
let hits_lock_free () =
  let c = Cache.create ~shards:1 ~capacity:100 ~weight:(fun _ -> 1) () in
  Cache.insert c 1 "v";
  let locked = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Cache.with_shard_locked c 1 (fun () ->
            Atomic.set locked true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get locked) do
    Domain.cpu_relax ()
  done;
  (* The shard mutex is held right now. *)
  let via_find = Cache.find c 1 in
  let via_mem = Cache.mem c 1 in
  let via_find_or_add =
    Cache.find_or_add c 1 (fun () -> Alcotest.fail "loader ran on a hit")
  in
  Atomic.set release true;
  Domain.join holder;
  Alcotest.(check (option string))
    "find completed under held shard lock" (Some "v") via_find;
  Alcotest.(check bool) "mem completed under held shard lock" true via_mem;
  Alcotest.(check string)
    "find_or_add hit completed under held shard lock" "v" via_find_or_add

(* ---------- singleflight ---------- *)

(* One generation: two domains race a cold key; the loader refuses to
   finish until the cache has registered a singleflight wait, so "loader
   ran exactly once and the loser shared the result" is deterministic,
   not a timing accident. *)
let singleflight_generation c key loads expected_loads =
  let waits_before = (Cache.stats c).Cache.singleflight_waits in
  let loader () =
    Atomic.incr loads;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (Cache.stats c).Cache.singleflight_waits < waits_before + 1
      && Unix.gettimeofday () < deadline
    do
      Domain.cpu_relax ()
    done;
    Printf.sprintf "value-%d" expected_loads
  in
  let d1 = Domain.spawn (fun () -> Cache.find_or_add c key loader) in
  let d2 = Domain.spawn (fun () -> Cache.find_or_add c key loader) in
  let v1 = Domain.join d1 and v2 = Domain.join d2 in
  Alcotest.(check string) "racers share one value" v1 v2;
  Alcotest.(check int) "loader ran exactly once this generation"
    expected_loads (Atomic.get loads);
  Alcotest.(check bool) "the loser waited on the flight" true
    ((Cache.stats c).Cache.singleflight_waits > waits_before)

let singleflight_once_per_generation () =
  let c = Cache.create ~shards:1 ~capacity:100 ~weight:(fun _ -> 1) () in
  let loads = Atomic.make 0 in
  singleflight_generation c 1 loads 1;
  (* New generation: drop the entry, the next racers reload once. *)
  Cache.remove c 1;
  singleflight_generation c 1 loads 2

let singleflight_failure_propagates () =
  let c = Cache.create ~shards:1 ~capacity:100 ~weight:(fun _ -> 1) () in
  (match Cache.find_or_add c 1 (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the loader's exception"
  | exception Failure m -> Alcotest.(check string) "loader exn" "boom" m);
  (* The failed flight is cleaned up: the next caller retries the load. *)
  Alcotest.(check string) "retry succeeds" "ok"
    (Cache.find_or_add c 1 (fun () -> "ok"))

(* ---------- reservations ---------- *)

(* Reserved weight squeezes resident entries, and an open cached table
   reserves exactly what its reader keeps hot — the decoded index (its
   separators' bytes plus 24 bytes per block, plus 8), filter,
   properties and footer, read back from the file's own footer — as one
   reservation, which [close] returns. *)
let pins_and_reservations () =
  let c = Cache.create ~shards:1 ~capacity:8 ~weight:(fun _ -> 1) () in
  Cache.reserve c 101 3;
  for i = 0 to 31 do
    Cache.insert c i "v"
  done;
  let s = Cache.stats c in
  Alcotest.(check bool) "budget holds reservation + resident" true
    (s.Cache.weight <= 8);
  Alcotest.(check bool) "reservation squeezed resident entries" true
    (Cache.cardinal c <= 5);
  Alcotest.(check int) "reservations counted" 1 s.Cache.pins;
  Cache.unreserve c 101;
  Cache.unreserve c 101 (* idempotent *);
  Alcotest.(check int) "reservation returned" 0 (Cache.stats c).Cache.pins;
  let path = build_table "reserve" (sorted_pairs 500) in
  let footer =
    In_channel.with_open_bin path (fun ic ->
        let len = Int64.to_int (In_channel.length ic) in
        In_channel.seek ic (Int64.of_int (len - Table_format.footer_length));
        Table_format.decode_footer
          (really_input_string ic Table_format.footer_length))
  in
  let size h = h.Block_handle.size in
  let cache = Cache.create ~capacity:(1 lsl 20) ~weight:Block.size_bytes () in
  let t = Table.open_file ~cache ~cmp:Comparator.bytewise path in
  let index =
    List.fold_left
      (fun acc (sep, _) -> acc + String.length sep + 24)
      8 (Table.index_anchors t)
  in
  let hot =
    index
    + size footer.Table_format.filter_handle
    + size footer.Table_format.props_handle
    + Table_format.footer_length
  in
  let s = Cache.stats cache in
  Alcotest.(check int) "open charges index + filter + props + footer" hot
    s.Cache.weight;
  Alcotest.(check int) "one reservation per open table" 1 s.Cache.pins;
  Alcotest.(check int) "nothing resident before a read" 0 (Cache.cardinal cache);
  Table.close t;
  let s = Cache.stats cache in
  Alcotest.(check int) "close returns the weight" 0 s.Cache.weight;
  Alcotest.(check int) "close returns the reservation" 0 s.Cache.pins

(* ---------- multi-domain stress ---------- *)

(* Heavy eviction pressure + racing lock-free hits + singleflight loads:
   every read must return its own key's value. *)
let stress_domains () =
  let c = Cache.create ~shards:4 ~capacity:64 ~weight:(fun _ -> 1) () in
  let n_keys = 512 in
  let worker seed () =
    let ok = ref true in
    for i = 0 to 10_000 do
      let key = (i * seed) mod n_keys in
      let expect = Printf.sprintf "val%d" key in
      let v =
        match Cache.find c key with
        | Some v -> v
        | None -> Cache.find_or_add c key (fun () -> expect)
      in
      if v <> expect then ok := false
    done;
    !ok
  in
  let results =
    List.map Domain.spawn [ worker 3; worker 5; worker 7 ]
    |> List.map Domain.join
  in
  List.iter
    (fun ok -> Alcotest.(check bool) "no wrong value" true ok)
    results;
  let s = Cache.stats c in
  Alcotest.(check bool) "evictions happened (pressure was real)" true
    (s.Cache.evictions > 0);
  Alcotest.(check bool) "capacity respected" true (s.Cache.weight <= 64)

(* ---------- readahead ---------- *)

let readahead_warms_cache () =
  let pairs = sorted_pairs 2000 in
  let path = build_table "ra_warm" pairs in
  let cache =
    Cache.create ~capacity:(1 lsl 20) ~readahead:4 ~weight:Block.size_bytes ()
  in
  let t = Table.open_file ~cache ~cmp:Comparator.bytewise path in
  let n_blocks = List.length (Table.index_anchors t) in
  Alcotest.(check bool) "enough blocks to readahead" true (n_blocks > 8);
  Alcotest.(check (list (pair string string)))
    "scan sees every pair" pairs (Table.to_list t);
  let s = Cache.stats cache in
  Alcotest.(check bool) "readahead batches issued" true (s.Cache.readaheads > 0);
  Alcotest.(check bool) "readahead fetched blocks" true
    (s.Cache.readahead_blocks > 0);
  (* Prefetched blocks are inserts, not misses: only the scan's first
     block (plus nothing else) should have missed. *)
  Alcotest.(check bool)
    (Printf.sprintf "prefetch absorbed the misses (%d misses, %d blocks)"
       s.Cache.misses n_blocks)
    true
    (s.Cache.misses < n_blocks / 4);
  (* A second scan is fully resident: no new readahead IO. *)
  let ra_before = s.Cache.readahead_blocks in
  ignore (Table.to_list t);
  let s2 = Cache.stats cache in
  Alcotest.(check int) "warm scan fetches nothing" ra_before
    s2.Cache.readahead_blocks;
  Table.close t

let readahead_point_reads_dont_prefetch () =
  let pairs = sorted_pairs 2000 in
  let path = build_table "ra_point" pairs in
  let cache =
    Cache.create ~capacity:(1 lsl 20) ~readahead:4 ~weight:Block.size_bytes ()
  in
  let t = Table.open_file ~cache ~cmp:Comparator.bytewise path in
  List.iter
    (fun probe -> ignore (Table.find_first_ge t probe))
    [ "key000100"; "key000900"; "key001500"; "key000400" ];
  Alcotest.(check int) "no readahead on point seeks" 0
    (Cache.stats cache).Cache.readaheads;
  Table.close t

(* An environment whose random files, once [armed], refuse any read
   larger than [threshold]: every multi-block readahead batch fails while
   single-block on-demand reads keep working. A scan must silently fall
   back to on-demand reads and still see everything. Arming happens after
   [Table.open_file] because metadata loads (index block) are legitimately
   large. *)
let limited_env ~armed ~threshold =
  let base = Env.unix in
  {
    base with
    Env.open_random =
      (fun path ->
        let f = base.Env.open_random path in
        {
          f with
          Env.rf_read =
            (fun ~pos ~len ->
              if !armed && len > !threshold then
                failwith "batch read refused"
              else f.Env.rf_read ~pos ~len);
        });
  }

(* Largest single read a readahead-free scan issues: the batch-refusal
   threshold. Any >=2-block batch is necessarily bigger (each data block
   payload alone is near the block size). *)
let max_on_demand_read_len path =
  let max_len = ref 0 in
  let base = Env.unix in
  let recording =
    {
      base with
      Env.open_random =
        (fun p ->
          let f = base.Env.open_random p in
          {
            f with
            Env.rf_read =
              (fun ~pos ~len ->
                if len > !max_len then max_len := len;
                f.Env.rf_read ~pos ~len);
          });
    }
  in
  let t = Table.open_file ~env:recording ~cmp:Comparator.bytewise path in
  max_len := 0;
  (* reset: only count data-block reads, not metadata *)
  ignore (Table.to_list t);
  Table.close t;
  !max_len

let readahead_failure_degrades_to_on_demand () =
  let pairs = sorted_pairs 2000 in
  let path = build_table "ra_fail" pairs in
  let threshold = ref (max_on_demand_read_len path) in
  Alcotest.(check bool) "sane single-block read size" true (!threshold > 0);
  let cache =
    Cache.create ~capacity:(1 lsl 20) ~readahead:4 ~weight:Block.size_bytes ()
  in
  let armed = ref false in
  let t =
    Table.open_file ~cache
      ~env:(limited_env ~armed ~threshold)
      ~cmp:Comparator.bytewise path
  in
  armed := true;
  Alcotest.(check (list (pair string string)))
    "scan survives readahead failure" pairs (Table.to_list t);
  Alcotest.(check int) "no batch ever succeeded" 0
    (Cache.stats cache).Cache.readaheads;
  armed := false;
  Table.close t

(* Store-level: scans with bit-rot injected under an active readahead
   policy. Rot seen by a readahead batch is swallowed (the batch is
   dropped); rot seen by an on-demand read goes through the existing
   containment path (a verdict, `Partial`). Neither may take the store
   to `Degraded`. *)
let readahead_with_bitrot_never_degrades () =
  let module Db = Clsm_core.Db in
  let module Options = Clsm_core.Options in
  List.iter
    (fun seed ->
      let dir = Filename.concat tmp_dir (Printf.sprintf "ra_rot_%d" seed) in
      let fenv = Clsm_env.Faulty_env.create ~seed () in
      let base = Options.default ~dir in
      let opts =
        {
          base with
          Options.env = Clsm_env.Faulty_env.env fenv;
          wal_enabled = false;
          readahead_blocks = 4;
          memtable_bytes = 64 * 1024;
          lsm =
            {
              base.Options.lsm with
              Clsm_lsm.Lsm_config.block_size = 256;
              target_file_size = 16 * 1024;
            };
        }
      in
      let db = Db.open_store opts in
      let pairs = sorted_pairs 2000 in
      List.iter (fun (k, v) -> Db.put db ~key:k ~value:v) pairs;
      Db.compact_now db;
      (* Arm bit-rot only now: the write/compaction path is clean, so
         every injected fault lands on the read path under test. *)
      Clsm_env.Faulty_env.set_fault_rates fenv ~corrupt_read_1_in:24 ();
      for _ = 1 to 4 do
        match Db.range db with
        | got ->
            (* A scan that succeeds must be correct: every returned
               binding is one we wrote. *)
            List.iter
              (fun (k, v) ->
                Alcotest.(check bool)
                  (Printf.sprintf "scan binding %s intact" k)
                  true
                  (List.assoc_opt k pairs = Some v))
              got
        | exception _ -> () (* rot on an on-demand read: legitimate *)
      done;
      (match Db.health db with
      | `Degraded reason ->
          Alcotest.failf "seed %d: degraded by read-path faults: %s" seed
            reason
      | `Ok | `Partial _ -> ());
      Db.close db)
    [ 1; 2; 3 ]

(* ---------- block keys ---------- *)

(* Tables of one layout — the same keys and value sizes, so the same
   block offsets — but their own values: a block served under another
   table's key would show up as a wrong value. *)
let layout_pairs tag =
  List.init 600 (fun i -> (Printf.sprintf "key%06d" i, Printf.sprintf "%s%05d" tag i))

let open_layout_table cache tag =
  let path = build_table ("keys_" ^ tag) (layout_pairs tag) in
  Table.open_file ~cache ~cmp:Comparator.bytewise path

let n_blocks t = List.length (Table.index_anchors t)
let misses cache = (Cache.stats cache).Cache.misses

let open_tables_never_share_keys () =
  let cache = Cache.create ~capacity:(1 lsl 22) ~weight:Block.size_bytes () in
  let a = open_layout_table cache "a" and b = open_layout_table cache "b" in
  Alcotest.(check bool) "several blocks" true (n_blocks a > 4);
  for _ = 1 to 2 do
    Alcotest.(check (list (pair string string))) "a reads its own blocks"
      (layout_pairs "a") (Table.to_list a);
    Alcotest.(check (list (pair string string))) "b reads its own blocks"
      (layout_pairs "b") (Table.to_list b)
  done;
  Alcotest.(check (option (pair string string))) "a point read"
    (Some ("key000300", "a00300")) (Table.find_first_ge a "key000300");
  Alcotest.(check int) "every block of both tables resident"
    (n_blocks a + n_blocks b)
    (Cache.cardinal cache);
  Table.close a;
  Table.close b

let close_drops_only_its_blocks () =
  let cache = Cache.create ~capacity:(1 lsl 22) ~weight:Block.size_bytes () in
  let a = open_layout_table cache "a" and b = open_layout_table cache "b" in
  ignore (Table.to_list a);
  ignore (Table.to_list b);
  let b_blocks = n_blocks b in
  Table.close a;
  Alcotest.(check int) "only b's blocks remain" b_blocks
    (Cache.cardinal cache);
  let before = misses cache in
  Alcotest.(check (list (pair string string))) "b still reads"
    (layout_pairs "b") (Table.to_list b);
  Alcotest.(check int) "b's blocks all stayed resident" before (misses cache);
  (* A table opened now may take a's id: it must find none of a's
     blocks under its keys. *)
  let c = open_layout_table cache "c" in
  Alcotest.(check (list (pair string string))) "a new table reads its own"
    (layout_pairs "c") (Table.to_list c);
  Alcotest.(check int) "a new table loads every block" (before + n_blocks c)
    (misses cache);
  Table.close b;
  Table.close c;
  Table.close c (* idempotent *);
  Alcotest.(check int) "nothing left" 0 (Cache.cardinal cache);
  Alcotest.(check int) "no weight left" 0 (Cache.stats cache).Cache.weight

(* A file longer than the key's offset bits could alias a block of the
   next table id: opening it with a cache is refused before any read. *)
let open_refuses_unkeyable_file () =
  let closed = ref false in
  let huge =
    {
      Env.unix with
      Env.open_random =
        (fun _ ->
          {
            Env.rf_length = (1 lsl 40) + 1;
            rf_read = (fun ~pos:_ ~len:_ -> Alcotest.fail "read before the check");
            rf_close = (fun () -> closed := true);
          });
    }
  in
  let cache = Cache.create ~capacity:1024 ~weight:Block.size_bytes () in
  (match Table.open_file ~cache ~env:huge ~cmp:Comparator.bytewise "huge.sst" with
  | _ -> Alcotest.fail "a 1 TiB + 1 file was opened"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "the file was closed" true !closed

(* CLOCK: an eviction swap-moves the ring's last entry, the one just
   inserted, into the victim's slot under the hand; the hand must step
   past it, or the newest entry is the next victim. In a full one-shard
   cache of unreferenced entries, each insert evicts one entry, and
   never the one inserted just before it. *)
let newest_entry_survives_next_insert () =
  let cap = 8 in
  let c = Cache.create ~shards:1 ~capacity:cap ~weight:(fun _ -> 1) () in
  for i = 0 to cap - 1 do
    Cache.insert c i "v"
  done;
  for i = cap to (4 * cap) - 1 do
    Cache.insert c i "v";
    Cache.insert c (i + 1000) "v";
    Alcotest.(check bool)
      (Printf.sprintf "entry %d survives the insert after it" i)
      true (Cache.mem c i);
    Cache.remove c (i + 1000)
  done

let suites =
  [
    ( "cache.lockfree",
      [
        Alcotest.test_case "hit path ignores a held shard lock" `Quick
          hits_lock_free;
      ] );
    ( "cache.singleflight",
      [
        Alcotest.test_case "loader once per generation" `Quick
          singleflight_once_per_generation;
        Alcotest.test_case "failure propagates, flight cleaned" `Quick
          singleflight_failure_propagates;
      ] );
    ( "cache.pins",
      [
        Alcotest.test_case "pin + reservation accounting" `Quick
          pins_and_reservations;
      ] );
    ( "cache.clock",
      [
        Alcotest.test_case "the newest entry survives the next insert" `Quick
          newest_entry_survives_next_insert;
      ] );
    ( "cache.keys",
      [
        Alcotest.test_case "open tables never share a block key" `Quick
          open_tables_never_share_keys;
        Alcotest.test_case "close drops only the table's blocks" `Quick
          close_drops_only_its_blocks;
        Alcotest.test_case "a file too long for the key is refused" `Quick
          open_refuses_unkeyable_file;
      ] );
    ( "cache.stress",
      [
        Alcotest.test_case "domains race hits/loads under eviction" `Quick
          stress_domains;
      ] );
    ( "cache.readahead",
      [
        Alcotest.test_case "sequential scan warms the cache" `Quick
          readahead_warms_cache;
        Alcotest.test_case "point reads never prefetch" `Quick
          readahead_point_reads_dont_prefetch;
        Alcotest.test_case "batch failure degrades to on-demand" `Quick
          readahead_failure_degrades_to_on_demand;
        Alcotest.test_case "bit-rot under readahead never degrades" `Slow
          readahead_with_bitrot_never_degrades;
      ] );
  ]
