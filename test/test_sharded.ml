(* The range-shard router, tested two ways:

   - directed: routing, cross-shard scan order, one-fence snapshot
     consistency over batches, SHARDING layout persistence across
     reopen, per-shard stats roll-up, repair of shard subdirectories;
   - property: a sharded store with RANDOM boundaries is observationally
     equivalent to a single Db — every operation of a random history
     (gets, scans, RMW, batches, snapshots, tombstones, compactions)
     returns the same answer from both. *)

open Clsm_core

let fresh_dir = Test_dirs.fresh "sharded"

let small_opts dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 8 * 1024;
    cache_bytes = 1 lsl 20;
    maintenance_workers = 1;
    lsm =
      {
        base.Options.lsm with
        Clsm_lsm.Lsm_config.level1_max_bytes = 32 * 1024;
        target_file_size = 8 * 1024;
        block_size = 512;
        l0_compaction_trigger = 2;
      };
  }

let sharded_opts ?bounds ~shards dir =
  { (small_opts dir) with Options.shards; shard_boundaries = bounds }

(* ---------- the operation language and its interpreter ---------- *)

type op =
  | Put of string * string
  | Del of string
  | Get of string
  | Batch of (string * string option) list
  | Rmw_append of string * string
  | Rmw_remove of string
  | Put_if_absent of string * string
  | Scan of string option * string option
  | Multi of string list
  | Snap of int
  | Read_at of int * string
  | Release of int
  | Compact

let show_op = function
  | Put (k, v) -> Printf.sprintf "Put(%s,%s)" k v
  | Del k -> Printf.sprintf "Del(%s)" k
  | Get k -> Printf.sprintf "Get(%s)" k
  | Batch ops ->
      Printf.sprintf "Batch[%s]"
        (String.concat ";"
           (List.map
              (function
                | k, Some v -> Printf.sprintf "%s=%s" k v
                | k, None -> Printf.sprintf "%s=⊥" k)
              ops))
  | Rmw_append (k, s) -> Printf.sprintf "RmwAppend(%s,%s)" k s
  | Rmw_remove k -> Printf.sprintf "RmwRemove(%s)" k
  | Put_if_absent (k, v) -> Printf.sprintf "Pia(%s,%s)" k v
  | Scan (lo, hi) ->
      Printf.sprintf "Scan(%s,%s)"
        (Option.value ~default:"-" lo)
        (Option.value ~default:"-" hi)
  | Multi ks -> Printf.sprintf "Multi[%s]" (String.concat ";" ks)
  | Snap i -> Printf.sprintf "Snap(%d)" i
  | Read_at (i, k) -> Printf.sprintf "ReadAt(%d,%s)" i k
  | Release i -> Printf.sprintf "Release(%d)" i
  | Compact -> "Compact"

let show_opt = function None -> "⊥" | Some v -> v

let show_pairs ps =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) ps)

(* Every operation is reduced to a string observation, so two stores are
   equivalent iff their observation traces are equal. *)
module Interp (St : Store_sig.S) = struct
  type state = { db : St.t; snaps : (int, St.snapshot) Hashtbl.t }

  let make db = { db; snaps = Hashtbl.create 8 }

  let apply st op =
    match op with
    | Put (k, v) ->
        St.put st.db ~key:k ~value:v;
        "()"
    | Del k ->
        St.delete st.db ~key:k;
        "()"
    | Get k -> show_opt (St.get st.db k)
    | Batch ops ->
        St.write_batch st.db
          (List.map
             (function
               | k, Some v -> St.Batch_put (k, v) | k, None -> St.Batch_delete k)
             ops);
        "()"
    | Rmw_append (k, s) ->
        show_opt
          (St.rmw st.db ~key:k (function
            | Some v -> St.Set (v ^ s)
            | None -> St.Set s))
    | Rmw_remove k ->
        show_opt (St.rmw st.db ~key:k (function Some _ -> St.Remove | None -> St.Abort))
    | Put_if_absent (k, v) -> string_of_bool (St.put_if_absent st.db ~key:k ~value:v)
    | Scan (lo, hi) -> show_pairs (St.range ?start:lo ?stop:hi st.db)
    | Multi ks ->
        String.concat ";"
          (List.map (fun (k, v) -> k ^ "=" ^ show_opt v) (St.multi_get st.db ks))
    | Snap i ->
        Hashtbl.replace st.snaps i (St.get_snap st.db);
        "()"
    | Read_at (i, k) -> (
        match Hashtbl.find_opt st.snaps i with
        | None -> "nosnap"
        | Some s -> show_opt (St.get_at st.db s k))
    | Release i -> (
        match Hashtbl.find_opt st.snaps i with
        | None -> "nosnap"
        | Some s ->
            St.release_snapshot st.db s;
            Hashtbl.remove st.snaps i;
            "()")
    | Compact ->
        St.compact_now st.db;
        "()"

  let finish st =
    let all = show_pairs (St.range st.db) in
    Hashtbl.iter (fun _ s -> St.release_snapshot st.db s) st.snaps;
    St.close st.db;
    all
end

module Run_db = Interp (Db)
module Run_sharded = Interp (Sharded_db)

(* ---------- the equivalence property ---------- *)

let key_gen =
  QCheck.Gen.map2
    (fun c i -> Printf.sprintf "%c%02d" (Char.chr (Char.code 'a' + c)) i)
    (QCheck.Gen.int_range 0 15) (QCheck.Gen.int_range 0 9)

let value_gen = QCheck.Gen.map (Printf.sprintf "v%d") (QCheck.Gen.int_range 0 999)
let slot_gen = QCheck.Gen.int_range 0 3

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun k v -> Put (k, v)) key_gen value_gen);
      (2, map (fun k -> Del k) key_gen);
      (5, map (fun k -> Get k) key_gen);
      ( 2,
        map
          (fun kvs -> Batch kvs)
          (list_size (int_range 1 6)
             (map2
                (fun k v -> (k, if String.length v mod 3 = 0 then None else Some v))
                key_gen value_gen)) );
      (2, map2 (fun k v -> Rmw_append (k, v)) key_gen value_gen);
      (1, map (fun k -> Rmw_remove k) key_gen);
      (1, map2 (fun k v -> Put_if_absent (k, v)) key_gen value_gen);
      ( 2,
        map2
          (fun a b ->
            let lo, hi = if a <= b then (a, b) else (b, a) in
            Scan (Some lo, Some hi))
          key_gen key_gen );
      (1, return (Scan (None, None)));
      (1, map (fun ks -> Multi ks) (list_size (int_range 1 4) key_gen));
      (2, map (fun i -> Snap i) slot_gen);
      (3, map2 (fun i k -> Read_at (i, k)) slot_gen key_gen);
      (1, map (fun i -> Release i) slot_gen);
      (1, return Compact);
    ]

(* Random strictly-ascending single-byte boundaries inside the generated
   key alphabet, so every boundary actually splits live keys. *)
let bounds_gen =
  QCheck.Gen.map
    (fun cs ->
      List.sort_uniq compare
        (List.map (fun c -> String.make 1 (Char.chr (Char.code 'a' + c))) cs))
    QCheck.Gen.(list_size (int_range 0 3) (int_range 1 15))

let scenario_gen =
  QCheck.Gen.pair bounds_gen (QCheck.Gen.list_size (QCheck.Gen.int_range 20 80) op_gen)

let scenario_print (bounds, ops) =
  Printf.sprintf "boundaries=[%s]\n%s"
    (String.concat ";" bounds)
    (String.concat "\n" (List.map show_op ops))

let prop_sharded_equals_single =
  QCheck.Test.make ~count:25
    ~name:"sharded store ≡ single store (random boundaries, full op mix)"
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (bounds, ops) ->
      let single = Run_db.make (Db.open_store (small_opts (fresh_dir ()))) in
      let sharded =
        Run_sharded.make
          (Sharded_db.open_store
             (sharded_opts
                ?bounds:(if bounds = [] then None else Some bounds)
                ~shards:(List.length bounds + 1)
                (fresh_dir ())))
      in
      let ok = ref true in
      List.iteri
        (fun i op ->
          let a = Run_db.apply single op in
          let b = Run_sharded.apply sharded op in
          if a <> b then begin
            ok := false;
            QCheck.Test.fail_reportf "op %d %s: single=%S sharded=%S" i
              (show_op op) a b
          end)
        ops;
      let fa = Run_db.finish single in
      let fb = Run_sharded.finish sharded in
      if fa <> fb then
        QCheck.Test.fail_reportf "final contents differ:\nsingle=%s\nsharded=%s"
          fa fb;
      !ok)

(* ---------- directed tests ---------- *)

let test_routing_and_scan_order () =
  let dir = fresh_dir () in
  let db =
    Sharded_db.open_store (sharded_opts ~bounds:[ "h"; "p" ] ~shards:3 dir)
  in
  Alcotest.(check int) "shard count" 3 (Sharded_db.shard_count db);
  Alcotest.(check (list string))
    "boundaries" [ "h"; "p" ]
    (Sharded_db.shard_boundaries db);
  (* Interleave keys across the three ranges. *)
  let keys = [ "apple"; "zebra"; "hat"; "mango"; "cat"; "pear"; "ice" ] in
  List.iter (fun k -> Sharded_db.put db ~key:k ~value:("v-" ^ k)) keys;
  (* Every shard saw only its own keys. *)
  let per_shard = Sharded_db.shard_stats db in
  Alcotest.(check int) "shard 0 puts" 2 per_shard.(0).Stats.puts (* apple cat *);
  Alcotest.(check int) "shard 1 puts" 3 per_shard.(1).Stats.puts
    (* hat mango ice *);
  Alcotest.(check int) "shard 2 puts" 2 per_shard.(2).Stats.puts (* pear zebra *);
  (* The merged scan is globally sorted and complete. *)
  Alcotest.(check (list string))
    "scan order"
    (List.sort compare keys)
    (List.map fst (Sharded_db.range db));
  (* Sub-ranges crossing a boundary work. *)
  Alcotest.(check (list string))
    "bounded scan" [ "cat"; "hat"; "ice" ]
    (List.map fst (Sharded_db.range ~start:"c" ~stop:"j" db));
  (* Roll-up counts everything. *)
  Alcotest.(check int) "rolled-up puts" 7 (Sharded_db.stats db).Stats.puts;
  Sharded_db.close db

let test_snapshot_atomic_over_batches () =
  let dir = fresh_dir () in
  let db =
    Sharded_db.open_store (sharded_opts ~bounds:[ "m" ] ~shards:2 dir)
  in
  (* A cross-shard batch is atomic under a router snapshot: the fence
     can never land between the two per-shard sub-batches. *)
  Sharded_db.write_batch db
    [ Sharded_db.Batch_put ("a", "1"); Sharded_db.Batch_put ("z", "1") ];
  let s = Sharded_db.get_snap db in
  Sharded_db.write_batch db
    [ Sharded_db.Batch_put ("a", "2"); Sharded_db.Batch_put ("z", "2") ];
  Alcotest.(check (option string)) "a@snap" (Some "1") (Sharded_db.get_at db s "a");
  Alcotest.(check (option string)) "z@snap" (Some "1") (Sharded_db.get_at db s "z");
  Alcotest.(check (option string)) "a now" (Some "2") (Sharded_db.get db "a");
  (* The snapshot also pins a consistent scan across both shards. *)
  Alcotest.(check (list (pair string string)))
    "scan@snap"
    [ ("a", "1"); ("z", "1") ]
    (Sharded_db.range ~snapshot:s db);
  Sharded_db.release_snapshot db s;
  Sharded_db.close db

let test_layout_persists_across_reopen () =
  let dir = fresh_dir () in
  let db =
    Sharded_db.open_store (sharded_opts ~bounds:[ "g"; "q" ] ~shards:3 dir)
  in
  Sharded_db.put db ~key:"alpha" ~value:"1";
  Sharded_db.put db ~key:"kilo" ~value:"2";
  Sharded_db.put db ~key:"tango" ~value:"3";
  Sharded_db.close db;
  (* Reopen asking for DIFFERENT sharding: the persisted layout wins. *)
  let db = Sharded_db.open_store (sharded_opts ~shards:1 dir) in
  Alcotest.(check int) "persisted shard count" 3 (Sharded_db.shard_count db);
  Alcotest.(check (list string))
    "persisted boundaries" [ "g"; "q" ]
    (Sharded_db.shard_boundaries db);
  Alcotest.(check (list (pair string string)))
    "data survives"
    [ ("alpha", "1"); ("kilo", "2"); ("tango", "3") ]
    (Sharded_db.range db);
  Sharded_db.close db

let test_shared_clock_orders_cross_shard_writes () =
  let dir = fresh_dir () in
  let db =
    Sharded_db.open_store (sharded_opts ~bounds:[ "m" ] ~shards:2 dir)
  in
  (* Writes alternating between shards draw from ONE clock, so a
     snapshot between any two of them cuts a consistent prefix. *)
  for i = 1 to 20 do
    let shard_key = if i mod 2 = 0 then "apple" else "zebra" in
    Sharded_db.put db ~key:shard_key ~value:(string_of_int i)
  done;
  let s = Sharded_db.get_snap db in
  Sharded_db.put db ~key:"apple" ~value:"late";
  Sharded_db.put db ~key:"zebra" ~value:"late";
  Alcotest.(check (option string))
    "apple@snap" (Some "20")
    (Sharded_db.get_at db s "apple");
  Alcotest.(check (option string))
    "zebra@snap" (Some "19")
    (Sharded_db.get_at db s "zebra");
  Sharded_db.release_snapshot db s;
  Sharded_db.close db

let test_shared_maintenance_flushes_all_shards () =
  let dir = fresh_dir () in
  let db =
    Sharded_db.open_store (sharded_opts ~bounds:[ "m" ] ~shards:2 dir)
  in
  (* Enough data in both shards to force rotations, then drain through
     the shared pool synchronously. *)
  for i = 0 to 199 do
    Sharded_db.put db
      ~key:(Printf.sprintf "a%04d" i)
      ~value:(String.make 100 'x');
    Sharded_db.put db
      ~key:(Printf.sprintf "z%04d" i)
      ~value:(String.make 100 'y')
  done;
  Sharded_db.compact_now db;
  let per_shard = Sharded_db.shard_stats db in
  Alcotest.(check bool) "shard 0 flushed" true (per_shard.(0).Stats.flushes > 0);
  Alcotest.(check bool) "shard 1 flushed" true (per_shard.(1).Stats.flushes > 0);
  Alcotest.(check int)
    "no data lost" 400
    (List.length (Sharded_db.range db));
  Alcotest.(check (list string)) "integrity" [] (Sharded_db.verify_integrity db);
  Sharded_db.close db

let test_repair_per_shard () =
  let dir = fresh_dir () in
  let db =
    Sharded_db.open_store (sharded_opts ~bounds:[ "m" ] ~shards:2 dir)
  in
  for i = 0 to 99 do
    Sharded_db.put db ~key:(Printf.sprintf "a%03d" i) ~value:"x";
    Sharded_db.put db ~key:(Printf.sprintf "z%03d" i) ~value:"y"
  done;
  Sharded_db.compact_now db;
  Sharded_db.close db;
  (* Lose one shard's manifest; RepairDB must rebuild only from that
     shard's tables while the other shard is untouched. *)
  let victim = Filename.concat dir "shard-1" in
  Array.iter
    (fun name ->
      if String.length name >= 8 && String.sub name 0 8 = "MANIFEST" then
        Sys.remove (Filename.concat victim name))
    (Sys.readdir victim);
  Sharded_db.repair ~dir ();
  let db = Sharded_db.open_store (sharded_opts ~shards:1 dir) in
  Alcotest.(check int) "all rows back" 200 (List.length (Sharded_db.range db));
  Alcotest.(check (option string)) "z row" (Some "y") (Sharded_db.get db "z042");
  Sharded_db.close db

(* The router keeps the single-store contract after [close]: every
   call raises [Closed] (point calls through their shard, batches and
   snapshots at the router), a second [close] returns, and nothing
   written after [close] survives a reopen. *)
let test_closed_router_refuses_calls () =
  let dir = fresh_dir () in
  let opts = sharded_opts ~bounds:[ "m" ] ~shards:2 dir in
  let db = Sharded_db.open_store opts in
  Sharded_db.put db ~key:"a" ~value:"1";
  Sharded_db.put db ~key:"z" ~value:"2";
  Sharded_db.close db;
  let closed = Watchdog.expect_closed in
  closed "put" (fun () -> Sharded_db.put db ~key:"b" ~value:"x");
  closed "get" (fun () -> Sharded_db.get db "a");
  closed "write_batch" (fun () ->
      Sharded_db.write_batch db
        [ Sharded_db.Batch_put ("c", "x"); Sharded_db.Batch_put ("y", "x") ]);
  closed "get_snap" (fun () -> Sharded_db.get_snap db);
  closed "range" (fun () -> Sharded_db.range db);
  closed "compact_now" (fun () -> Sharded_db.compact_now db);
  Alcotest.(check bool) "health is not Ok" true (Sharded_db.health db <> `Ok);
  Sharded_db.close db;
  let db = Sharded_db.open_store opts in
  Alcotest.(check (list (pair string string))) "only what was written before"
    [ ("a", "1"); ("z", "2") ] (Sharded_db.range db);
  Sharded_db.close db

(* A failed SHARDING write must not leak its descriptor: with the temp
   file's fsync failing, [open_store] raises and every writer the env
   opened has been closed. *)
let test_layout_write_failure_releases_writer () =
  let module Env = Clsm_env.Env in
  let dir = fresh_dir () in
  let opened = Atomic.make 0 and closed = Atomic.make 0 in
  let env =
    {
      Env.unix with
      create_writer =
        (fun path ->
          let w = Env.unix.create_writer path in
          Atomic.incr opened;
          {
            w with
            w_fsync =
              (fun () ->
                if Filename.basename path = "SHARDING.tmp" then
                  raise (Env.Error { op = "fsync"; path; message = "injected" });
                w.w_fsync ());
            w_close =
              (fun () ->
                Atomic.incr closed;
                w.w_close ());
          });
    }
  in
  (match
     Sharded_db.open_store
       { (sharded_opts ~bounds:[ "m" ] ~shards:2 dir) with Options.env }
   with
  | db ->
      Sharded_db.close db;
      Alcotest.fail "open_store must raise on the failed SHARDING fsync"
  | exception Env.Error _ -> ());
  Alcotest.(check int) "writers opened = writers closed" (Atomic.get opened)
    (Atomic.get closed)

let suites =
  [
    ( "sharded",
      [
        Alcotest.test_case "routing, per-shard stats, scan order" `Quick
          test_routing_and_scan_order;
        Alcotest.test_case "snapshot is atomic over cross-shard batches" `Quick
          test_snapshot_atomic_over_batches;
        Alcotest.test_case "SHARDING layout wins on reopen" `Quick
          test_layout_persists_across_reopen;
        Alcotest.test_case "one clock orders cross-shard writes" `Quick
          test_shared_clock_orders_cross_shard_writes;
        Alcotest.test_case "shared pool maintains every shard" `Quick
          test_shared_maintenance_flushes_all_shards;
        Alcotest.test_case "repair rebuilds shard subdirectories" `Quick
          test_repair_per_shard;
        Alcotest.test_case "closed router refuses calls" `Quick
          test_closed_router_refuses_calls;
        Alcotest.test_case "failed layout write releases its writer" `Quick
          test_layout_write_failure_releases_writer;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_sharded_equals_single ] );
  ]
