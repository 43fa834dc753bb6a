open Clsm_baselines
module S = Single_writer_store

let fresh_dir = Test_dirs.fresh "base"

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

(* The lincheck campaign's single-writer target on its small seed set
   (the @lincheck target of the same name, with the key shapes rotated
   the same way): put-if-absent must be atomic with respect to every
   put, delete and put-if-absent. *)
let put_if_absent_linearizable () =
  let open Clsm_lincheck in
  List.iter
    (fun seed ->
      with_store (fun st _ ->
          let dist =
            match seed mod 4 with
            | 0 -> `Uniform
            | 1 -> `Zipf
            | 2 -> `Skewed_blocks
            | _ -> `Heavy_tail
          in
          let h =
            Stress.run
              {
                Stress.default with
                Stress.seed;
                dist;
                read_pct = 20;
                put_pct = 15;
                delete_pct = 25;
                rmw_pct = 0;
              }
              (Target.of_single_writer st)
          in
          let r = Checker.check h in
          if not (Checker.ok r) then
            Alcotest.failf "seed %d: %s" seed (Checker.pp_result r);
          match Scan_checker.check ~mode:`Serializable h with
          | [] -> ()
          | v :: _ ->
              Alcotest.failf "seed %d: %s" seed (Scan_checker.pp_violation v)))
    [ 9000; 9013; 9026; 9039 ]

(* Every file the baseline touches goes through [Options.env]: crash a
   per-write-durable baseline mid-workload on a Faulty_env, rebuild the
   directory as the crash left it, and reopen. *)
let honours_env () =
  let module Env = Clsm_env.Env in
  let module Faulty_env = Clsm_env.Faulty_env in
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:11 () in
  let opts =
    {
      (small_opts dir) with
      Clsm_core.Options.env = Faulty_env.env f;
      wal_sync = `Per_write;
    }
  in
  let st = S.open_store opts in
  let key i = Printf.sprintf "k%05d" i in
  let value i = Printf.sprintf "%d-%s" i (String.make 100 'v') in
  for i = 0 to 19 do
    S.put st ~key:(key i) ~value:(value i)
  done;
  (* past several memtable flushes, so tables and the manifest are
     written through the env too *)
  Faulty_env.arm f ~crash_after:1_000;
  let acked = ref 20 in
  (try
     while !acked < 5_000 do
       S.put st ~key:(key !acked) ~value:(value !acked);
       incr acked
     done
   with Env.Crashed | Clsm_core.Store_sig.Degraded _ -> ());
  Alcotest.(check bool) "crashed" true (Faulty_env.crashed f);
  Alcotest.(check bool) "IO went through the env" true
    (Faulty_env.mutating_ops f > 0);
  (try S.close st with Env.Crashed | Env.Error _ -> ());
  Faulty_env.install_crash_image f;
  let st = S.open_store { opts with Clsm_core.Options.env = Env.unix } in
  let lost = ref [] in
  for i = 0 to !acked - 1 do
    if S.get st (key i) <> Some (value i) then lost := key i :: !lost
  done;
  let problems = S.verify_integrity st in
  let files = List.fold_left ( + ) 0 (S.level_file_counts st) in
  S.close st;
  Alcotest.(check (list string)) "acknowledged puts survive" [] !lost;
  Alcotest.(check (list string)) "integrity" [] problems;
  Alcotest.(check bool) "flushed tables recovered" true (files > 0)

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
        Alcotest.test_case "put-if-absent is linearizable" `Quick
          put_if_absent_linearizable;
        Alcotest.test_case "IO goes through Options.env" `Quick honours_env;
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
