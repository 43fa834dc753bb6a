(* Model-based testing of the whole store: random operation histories are
   applied both to a Db and to a pure Map model, with compactions, crash/
   reopen cycles and snapshot checks interleaved; at every checkpoint the
   store must agree with the model exactly. *)

open Clsm_core
module M = Map.Make (String)

let fresh_dir = Test_dirs.fresh "model"

let small_opts dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 8 * 1024;
    cache_bytes = 1 lsl 20;
    lsm =
      {
        base.Options.lsm with
        Clsm_lsm.Lsm_config.level1_max_bytes = 32 * 1024;
        target_file_size = 8 * 1024;
        block_size = 512;
        l0_compaction_trigger = 2;
      };
  }

type model_op =
  | Mput of string * string
  | Mdel of string
  | Mbatch of (string * string option) list
  | Mrmw_incr of string
  | Mcompact
  | Mreopen
  | Mcrash_flushed (* flush WAL then crash: nothing may be lost *)
  | Mclose of model_op list
      (* close, then each op on the closed handle must raise [Closed]
         and change nothing; then reopen *)

let apply_model m = function
  | Mput (k, v) -> M.add k v m
  | Mdel k -> M.remove k m
  | Mbatch ops ->
      List.fold_left
        (fun m (k, v) ->
          match v with Some v -> M.add k v m | None -> M.remove k m)
        m ops
  | Mrmw_incr k ->
      let n = match M.find_opt k m with Some s -> int_of_string s | None -> 0 in
      M.add k (string_of_int (n + 1)) m
  | Mcompact | Mreopen | Mcrash_flushed | Mclose _ -> m

let rec apply_db db = function
  | Mput (k, v) ->
      Db.put !db ~key:k ~value:v;
      ()
  | Mdel k -> Db.delete !db ~key:k
  | Mbatch ops ->
      Db.write_batch !db
        (List.map
           (function
             | k, Some v -> Db.Batch_put (k, v)
             | k, None -> Db.Batch_delete k)
           ops)
  | Mrmw_incr k ->
      ignore
        (Db.rmw !db ~key:k (fun v ->
             let n =
               match v with Some s -> int_of_string s | None -> 0
             in
             Db.Set (string_of_int (n + 1))))
  | Mcompact -> Db.compact_now !db
  | Mreopen ->
      let opts = Db.options !db in
      Db.close !db;
      db := Db.open_store opts
  | Mcrash_flushed ->
      let opts = Db.options !db in
      Db.flush_wal !db;
      Db.simulate_crash !db;
      db := Db.open_store opts
  | Mclose run ->
      let opts = Db.options !db in
      Db.close !db;
      List.iter
        (fun op ->
          Watchdog.expect_closed "an update" (fun () -> apply_db db op);
          Watchdog.expect_closed "get" (fun () -> Db.get !db "k000");
          Watchdog.expect_closed "range" (fun () -> Db.range !db))
        run;
      db := Db.open_store opts

let rec gen_op ?(closes = false) rng key_space =
  if closes && Clsm_workload.Rng.int rng 100 < 3 then
    (* what a closed handle is asked to do: updates and compactions *)
    Mclose
      (List.init
         (1 + Clsm_workload.Rng.int rng 4)
         (fun _ ->
           match gen_op rng key_space with
           | Mreopen | Mcrash_flushed | Mclose _ -> Mcompact
           | op -> op))
  else
  (* plain keys use the k* namespace; counters use ctr* (numeric values) *)
  let key () = Printf.sprintf "k%03d" (Clsm_workload.Rng.int rng key_space) in
  let value () = Printf.sprintf "v%d" (Clsm_workload.Rng.int rng 1_000_000) in
  let r = Clsm_workload.Rng.int rng 100 in
  if r < 55 then Mput (key (), value ())
  else if r < 70 then Mdel (key ())
  else if r < 80 then
    Mbatch
      (List.init
         (1 + Clsm_workload.Rng.int rng 5)
         (fun _ ->
           if Clsm_workload.Rng.bool rng 0.8 then (key (), Some (value ()))
           else (key (), None)))
  else if r < 92 then
    (* counters live in their own namespace so values stay numeric *)
    Mrmw_incr (Printf.sprintf "ctr%02d" (Clsm_workload.Rng.int rng 10))
  else if r < 96 then Mcompact
  else if r < 98 then Mreopen
  else Mcrash_flushed

let check_agreement ~ctx db model =
  (* full contents *)
  let db_contents = Db.range db in
  let model_contents = M.bindings model in
  Alcotest.(check (list (pair string string)))
    (ctx ^ ": full range = model") model_contents db_contents;
  (* spot gets, including absent keys *)
  List.iteri
    (fun i (k, v) ->
      if i mod 7 = 0 then
        Alcotest.(check (option string)) (ctx ^ ": get " ^ k) (Some v)
          (Db.get db k))
    model_contents;
  Alcotest.(check (option string)) (ctx ^ ": absent") None (Db.get db "zz-absent")

let run_history ?closes ~seed ~steps ~key_space () =
  let dir = fresh_dir () in
  let db = ref (Db.open_store (small_opts dir)) in
  let rng = Clsm_workload.Rng.create seed in
  let model = ref M.empty in
  for step = 1 to steps do
    let op = gen_op ?closes rng key_space in
    apply_db db op;
    model := apply_model !model op;
    if step mod 100 = 0 then
      check_agreement ~ctx:(Printf.sprintf "seed %d step %d" seed step) !db !model
  done;
  check_agreement ~ctx:(Printf.sprintf "seed %d final" seed) !db !model;
  (* the store must also be structurally healthy at the end *)
  Db.compact_now !db;
  Alcotest.(check (list string)) "verifies" [] (Db.verify_integrity !db);
  check_agreement ~ctx:"after final compaction" !db !model;
  Db.close !db

let snapshot_history () =
  (* Model check for snapshots: capture (map, snapshot) pairs along a
     history; at the end, every snapshot must still read exactly its
     captured map. *)
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts dir) in
  let rng = Clsm_workload.Rng.create 4242 in
  let model = ref M.empty in
  let captured = ref [] in
  for step = 1 to 600 do
    let op = gen_op rng 40 in
    (* reopen/crash invalidate snapshots; keep this history in-process *)
    (match op with
    | Mreopen | Mcrash_flushed | Mclose _ -> ()
    | op ->
        apply_db (ref db) op;
        model := apply_model !model op);
    if step mod 60 = 0 then
      captured := (Db.get_snap db, !model) :: !captured
  done;
  List.iteri
    (fun i (snap, snapshot_model) ->
      let got = Db.range ~snapshot:snap db in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "snapshot %d reads its past" i)
        (M.bindings snapshot_model) got;
      Db.release_snapshot db snap)
    !captured;
  Db.close db

let suites =
  [
    ( "model.db",
      [
        Alcotest.test_case "random history (seed 1)" `Quick
          (run_history ~seed:1 ~steps:700 ~key_space:50);
        Alcotest.test_case "random history (seed 2, small keyspace)" `Quick
          (run_history ~seed:2 ~steps:700 ~key_space:8);
        Alcotest.test_case "random history (seed 3, wide keyspace)" `Quick
          (run_history ~seed:3 ~steps:700 ~key_space:400);
        Alcotest.test_case "random history with closes (seed 4)" `Quick
          (run_history ~closes:true ~seed:4 ~steps:700 ~key_space:50);
        Alcotest.test_case "snapshots read their past" `Quick snapshot_history;
      ] );
  ]
