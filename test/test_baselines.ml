open Clsm_baselines
module S = Single_writer_store

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clsm_test_base_%d_%d" (Unix.getpid ()) !counter)

let small_opts dir =
  {
    (Clsm_core.Options.default ~dir) with
    Clsm_core.Options.memtable_bytes = 16 * 1024;
    cache_bytes = 1 lsl 20;
    lsm =
      {
        Clsm_core.Options.(default ~dir).lsm with
        Clsm_lsm.Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 16 * 1024;
        block_size = 1024;
      };
  }

let with_store f =
  let dir = fresh_dir () in
  let st = S.open_store (small_opts dir) in
  match f st dir with
  | r ->
      S.close st;
      r
  | exception e ->
      S.close st;
      raise e

let basic_roundtrip () =
  with_store (fun st _ ->
      S.put st ~key:"a" ~value:"1";
      S.put st ~key:"b" ~value:"2";
      Alcotest.(check (option string)) "get a" (Some "1") (S.get st "a");
      S.delete st ~key:"a";
      Alcotest.(check (option string)) "deleted" None (S.get st "a");
      S.put st ~key:"b" ~value:"2b";
      Alcotest.(check (option string)) "overwrite" (Some "2b") (S.get st "b"))

let through_compaction () =
  with_store (fun st _ ->
      for i = 0 to 999 do
        S.put st ~key:(Printf.sprintf "k%05d" i) ~value:(string_of_int i)
      done;
      S.compact_now st;
      let missing = ref 0 in
      for i = 0 to 999 do
        if S.get st (Printf.sprintf "k%05d" i) <> Some (string_of_int i) then
          incr missing
      done;
      Alcotest.(check int) "all on disk" 0 !missing;
      Alcotest.(check bool) "files exist" true
        (List.exists (fun c -> c > 0) (S.level_file_counts st)))

let snapshots_and_ranges () =
  with_store (fun st _ ->
      S.put st ~key:"x" ~value:"old";
      let snap = S.get_snap st in
      S.put st ~key:"x" ~value:"new";
      S.put st ~key:"y" ~value:"later";
      Alcotest.(check (option string)) "snapshot value" (Some "old")
        (S.get_at st snap "x");
      Alcotest.(check (list (pair string string)))
        "snapshot range"
        [ ("x", "old") ]
        (S.range ~snapshot:snap st);
      S.release_snapshot st snap;
      Alcotest.(check (list (pair string string)))
        "live range"
        [ ("x", "new"); ("y", "later") ]
        (S.range st))

let recovery () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let st = S.open_store opts in
  for i = 0 to 299 do
    S.put st ~key:(Printf.sprintf "k%04d" i) ~value:"v"
  done;
  S.close st;
  let st = S.open_store opts in
  Alcotest.(check (option string)) "recovered" (Some "v") (S.get st "k0042");
  S.close st

let serialized_writers_are_safe () =
  with_store (fun st _ ->
      let n = 1_000 in
      let writer tag () =
        for i = 0 to n - 1 do
          S.put st ~key:(Printf.sprintf "%c%05d" tag i) ~value:(String.make 8 tag)
        done
      in
      List.map Domain.spawn [ writer 'a'; writer 'b'; writer 'c' ]
      |> List.iter Domain.join;
      let missing = ref 0 in
      List.iter
        (fun tag ->
          for i = 0 to n - 1 do
            if S.get st (Printf.sprintf "%c%05d" tag i) = None then incr missing
          done)
        [ 'a'; 'b'; 'c' ];
      Alcotest.(check int) "no lost writes" 0 !missing)

(* A memtable a few records wide and an L0 stall limit of 3 keep the
   writers stalled most of the time: each stall must end on the
   background loop's install signal, with no write lost. *)
let stalled_writers_wake () =
  let dir = fresh_dir () in
  let base = small_opts dir in
  let opts =
    {
      base with
      Clsm_core.Options.memtable_bytes = 2048;
      lsm =
        {
          base.Clsm_core.Options.lsm with
          Clsm_lsm.Lsm_config.l0_compaction_trigger = 2;
          l0_slowdown_trigger = 3;
          l0_stall_limit = 3;
        };
    }
  in
  let st = S.open_store opts in
  let n = 1_500 in
  let writer tag () =
    for i = 0 to n - 1 do
      S.put st ~key:(Printf.sprintf "%c%05d" tag i) ~value:(String.make 64 tag)
    done
  in
  List.map Domain.spawn [ writer 'a'; writer 'b'; writer 'c' ]
  |> List.iter Domain.join;
  let missing = ref 0 in
  List.iter
    (fun tag ->
      for i = 0 to n - 1 do
        if S.get st (Printf.sprintf "%c%05d" tag i) = None then incr missing
      done)
    [ 'a'; 'b'; 'c' ];
  let stats = S.stats st in
  S.close st;
  Alcotest.(check int) "no lost writes" 0 !missing;
  Alcotest.(check bool) "writers stalled" true
    (stats.Clsm_core.Stats.write_stalls > 0);
  Alcotest.(check bool) "flushed" true (stats.Clsm_core.Stats.flushes > 1)

(* ---------- Striped RMW ---------- *)

let striped_counter_no_lost_updates () =
  let dir = fresh_dir () in
  let st = S.open_store (small_opts dir) in
  let striped = Striped_rmw.create st in
  let per = 600 in
  let worker () =
    for _ = 1 to per do
      ignore
        (Striped_rmw.rmw striped ~key:"ctr" (fun v ->
             let n = match v with Some s -> int_of_string s | None -> 0 in
             Striped_rmw.Set (string_of_int (n + 1))))
    done
  in
  List.map Domain.spawn [ worker; worker; worker ] |> List.iter Domain.join;
  Alcotest.(check (option string)) "counter exact"
    (Some (string_of_int (3 * per)))
    (Striped_rmw.get striped "ctr");
  S.close st

let striped_put_if_absent () =
  let dir = fresh_dir () in
  let st = S.open_store (small_opts dir) in
  let striped = Striped_rmw.create st in
  Alcotest.(check bool) "first" true
    (Striped_rmw.put_if_absent striped ~key:"k" ~value:"a");
  Alcotest.(check bool) "second" false
    (Striped_rmw.put_if_absent striped ~key:"k" ~value:"b");
  Alcotest.(check (option string)) "kept first" (Some "a")
    (Striped_rmw.get striped "k");
  Striped_rmw.delete striped ~key:"k";
  Alcotest.(check (option string)) "deleted" None (Striped_rmw.get striped "k");
  S.close st

(* ---------- cLSM vs baseline agreement ---------- *)

let stores_agree_on_random_history () =
  let dir1 = fresh_dir () and dir2 = fresh_dir () in
  let clsm = Clsm_core.Db.open_store (small_opts dir1) in
  let sw = S.open_store (small_opts dir2) in
  let rng = Clsm_workload.Rng.create 99 in
  for _ = 1 to 3_000 do
    let key = Printf.sprintf "k%03d" (Clsm_workload.Rng.int rng 200) in
    if Clsm_workload.Rng.bool rng 0.25 then begin
      Clsm_core.Db.delete clsm ~key;
      S.delete sw ~key
    end
    else begin
      let value = Printf.sprintf "v%d" (Clsm_workload.Rng.int rng 10_000) in
      Clsm_core.Db.put clsm ~key ~value;
      S.put sw ~key ~value
    end
  done;
  Clsm_core.Db.compact_now clsm;
  S.compact_now sw;
  Alcotest.(check (list (pair string string)))
    "identical contents" (S.range sw) (Clsm_core.Db.range clsm);
  Clsm_core.Db.close clsm;
  S.close sw

let suites =
  [
    ( "baselines.single_writer",
      [
        Alcotest.test_case "roundtrip" `Quick basic_roundtrip;
        Alcotest.test_case "through compaction" `Quick through_compaction;
        Alcotest.test_case "snapshots and ranges" `Quick snapshots_and_ranges;
        Alcotest.test_case "recovery" `Quick recovery;
        Alcotest.test_case "concurrent writers" `Quick serialized_writers_are_safe;
        Alcotest.test_case "stalled writers wake on install" `Quick
          stalled_writers_wake;
      ] );
    ( "baselines.striped_rmw",
      [
        Alcotest.test_case "no lost updates" `Quick striped_counter_no_lost_updates;
        Alcotest.test_case "put-if-absent" `Quick striped_put_if_absent;
      ] );
    ( "baselines.equivalence",
      [
        Alcotest.test_case "agrees with cLSM on random history" `Quick
          stores_agree_on_random_history;
      ] );
  ]
