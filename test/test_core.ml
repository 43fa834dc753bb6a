open Clsm_core
open Clsm_lsm

let spawn_all fns = List.map Domain.spawn fns |> List.map Domain.join

let fresh_dir = Test_dirs.fresh "db"

(* Small components so tests exercise rotation/flush/compaction quickly. *)
let small_opts ?(memtable_bytes = 16 * 1024) ?(wal_enabled = true)
    ?(linearizable = false) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes;
    wal_enabled;
    snapshots = (if linearizable then Clock.Linearizable else Clock.Serializable);
    cache_bytes = 1 lsl 20;
    lsm =
      {
        base.Options.lsm with
        Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 16 * 1024;
        block_size = 1024;
      };
  }

let with_store ?memtable_bytes ?wal_enabled ?linearizable f =
  let dir = fresh_dir () in
  let db = Db.open_store (small_opts ?memtable_bytes ?wal_enabled ?linearizable dir) in
  match f db dir with
  | result ->
      Db.close db;
      result
  | exception e ->
      Db.close db;
      raise e

(* ---------- Memtable unit tests ---------- *)

let memtable_versions () =
  let m = Memtable.create () in
  Memtable.add m ~user_key:"k" ~ts:5 (Entry.Value "v5");
  Memtable.add m ~user_key:"k" ~ts:9 (Entry.Value "v9");
  Memtable.add m ~user_key:"k" ~ts:7 Entry.Tombstone;
  let check snap expected =
    let got =
      match Memtable.get m ~user_key:"k" ~snap_ts:snap with
      | Some (ts, Entry.Value v) -> Some (ts, Some v)
      | Some (ts, Entry.Tombstone) -> Some (ts, None)
      | None -> None
    in
    Alcotest.(check (option (pair int (option string))))
      (Printf.sprintf "snap %d" snap)
      expected got
  in
  check 4 None;
  check 5 (Some (5, Some "v5"));
  check 6 (Some (5, Some "v5"));
  check 7 (Some (7, None));
  check 8 (Some (7, None));
  check 9 (Some (9, Some "v9"));
  check 100 (Some (9, Some "v9"));
  Alcotest.(check (option int)) "latest_ts" (Some 9) (Memtable.latest_ts m ~user_key:"k");
  Alcotest.(check int) "entry count" 3 (Memtable.entry_count m)

let memtable_duplicate_ignored () =
  let m = Memtable.create () in
  Memtable.add m ~user_key:"k" ~ts:3 (Entry.Value "first");
  let bytes = Memtable.approximate_bytes m in
  Memtable.add m ~user_key:"k" ~ts:3 (Entry.Value "replayed");
  Alcotest.(check int) "bytes unchanged" bytes (Memtable.approximate_bytes m);
  match Memtable.get m ~user_key:"k" ~snap_ts:10 with
  | Some (3, Entry.Value "first") -> ()
  | _ -> Alcotest.fail "duplicate should be ignored"

let memtable_user_key_isolation () =
  let m = Memtable.create () in
  Memtable.add m ~user_key:"aa" ~ts:1 (Entry.Value "a");
  Memtable.add m ~user_key:"ab" ~ts:2 (Entry.Value "b");
  (* Probing "a" must not surface "aa"'s or "ab"'s versions. *)
  Alcotest.(check bool) "no phantom" true (Memtable.get m ~user_key:"a" ~snap_ts:10 = None);
  Alcotest.(check bool) "exact aa" true
    (match Memtable.get m ~user_key:"aa" ~snap_ts:10 with
    | Some (1, Entry.Value "a") -> true
    | _ -> false)

let memtable_rmw_protocol () =
  let m = Memtable.create () in
  Memtable.add m ~user_key:"k" ~ts:5 (Entry.Value "v5");
  let prev_ts, loc = Memtable.locate_rmw m ~user_key:"k" in
  Alcotest.(check (option int)) "prev is newest version" (Some 5) prev_ts;
  (* A concurrent writer slips in: the CAS must fail. *)
  Memtable.add m ~user_key:"k" ~ts:6 (Entry.Value "v6");
  Alcotest.(check bool) "stale install fails" false
    (Memtable.try_install m loc ~user_key:"k" ~ts:7 (Entry.Value "v7"));
  (* Retry succeeds. *)
  let prev_ts, loc = Memtable.locate_rmw m ~user_key:"k" in
  Alcotest.(check (option int)) "sees v6" (Some 6) prev_ts;
  Alcotest.(check bool) "fresh install works" true
    (Memtable.try_install m loc ~user_key:"k" ~ts:7 (Entry.Value "v7"));
  match Memtable.get m ~user_key:"k" ~snap_ts:100 with
  | Some (7, Entry.Value "v7") -> ()
  | _ -> Alcotest.fail "v7 not visible"

(* ---------- Basic store operations ---------- *)

let basic_put_get () =
  with_store (fun db _dir ->
      Alcotest.(check (option string)) "missing" None (Db.get db "absent");
      Db.put db ~key:"alpha" ~value:"1";
      Db.put db ~key:"beta" ~value:"2";
      Alcotest.(check (option string)) "alpha" (Some "1") (Db.get db "alpha");
      Alcotest.(check (option string)) "beta" (Some "2") (Db.get db "beta");
      Db.put db ~key:"alpha" ~value:"1b";
      Alcotest.(check (option string)) "overwrite" (Some "1b") (Db.get db "alpha"))

let delete_semantics () =
  with_store (fun db _dir ->
      Db.put db ~key:"k" ~value:"v";
      Db.delete db ~key:"k";
      Alcotest.(check (option string)) "deleted" None (Db.get db "k");
      Db.put db ~key:"k" ~value:"v2";
      Alcotest.(check (option string)) "reborn" (Some "v2") (Db.get db "k");
      Db.delete db ~key:"never-existed";
      Alcotest.(check (option string)) "deleting absent ok" None
        (Db.get db "never-existed"))

let read_through_all_components () =
  (* Drive data into the disk component and verify reads across Pm, P'm and
     Pd, including deletes shadowing disk values. *)
  with_store (fun db _dir ->
      for i = 0 to 499 do
        Db.put db ~key:(Printf.sprintf "key%04d" i)
          ~value:(Printf.sprintf "val%d" i)
      done;
      Db.compact_now db;
      Alcotest.(check bool) "data reached disk" true
        (List.hd (Db.level_file_counts db) > 0
        || List.exists (fun c -> c > 0) (Db.level_file_counts db));
      (* disk hit *)
      Alcotest.(check (option string)) "from disk" (Some "val123")
        (Db.get db "key0123");
      (* overwrite in memtable shadows disk *)
      Db.put db ~key:"key0123" ~value:"fresh";
      Alcotest.(check (option string)) "mem shadows disk" (Some "fresh")
        (Db.get db "key0123");
      (* delete shadows disk *)
      Db.delete db ~key:"key0200";
      Alcotest.(check (option string)) "tombstone shadows disk" None
        (Db.get db "key0200");
      (* compact again; tombstone applied *)
      Db.compact_now db;
      Alcotest.(check (option string)) "still deleted after merge" None
        (Db.get db "key0200");
      Alcotest.(check (option string)) "survivor" (Some "val300")
        (Db.get db "key0300"))

let many_keys_roundtrip () =
  with_store (fun db _dir ->
      let n = 2_000 in
      for i = 0 to n - 1 do
        Db.put db ~key:(Printf.sprintf "k%06d" i) ~value:(string_of_int (i * i))
      done;
      Db.compact_now db;
      let missing = ref 0 in
      for i = 0 to n - 1 do
        if Db.get db (Printf.sprintf "k%06d" i) <> Some (string_of_int (i * i))
        then incr missing
      done;
      Alcotest.(check int) "all readable" 0 !missing)

(* ---------- Snapshots ---------- *)

let snapshot_isolation () =
  with_store (fun db _dir ->
      Db.put db ~key:"a" ~value:"1";
      Db.put db ~key:"b" ~value:"2";
      let s = Db.get_snap db in
      Db.put db ~key:"a" ~value:"9";
      Db.delete db ~key:"b";
      Db.put db ~key:"c" ~value:"new";
      Alcotest.(check (option string)) "snap a" (Some "1") (Db.get_at db s "a");
      Alcotest.(check (option string)) "snap b" (Some "2") (Db.get_at db s "b");
      Alcotest.(check (option string)) "snap c absent" None (Db.get_at db s "c");
      Alcotest.(check (option string)) "live a" (Some "9") (Db.get db "a");
      Alcotest.(check (option string)) "live b" None (Db.get db "b");
      Db.release_snapshot db s)

let snapshot_survives_compaction () =
  with_store (fun db _dir ->
      Db.put db ~key:"k" ~value:"old";
      let s = Db.get_snap db in
      Db.put db ~key:"k" ~value:"new";
      Db.compact_now db;
      Db.compact_now db;
      Alcotest.(check (option string)) "snapshot version preserved by GC"
        (Some "old") (Db.get_at db s "k");
      Alcotest.(check (option string)) "live" (Some "new") (Db.get db "k");
      Db.release_snapshot db s;
      (* After release, a further compaction may GC the old version; the
         live value must be unaffected. *)
      Db.put db ~key:"pad" ~value:"x";
      Db.compact_now db;
      Alcotest.(check (option string)) "live after release" (Some "new")
        (Db.get db "k"))

let snapshot_scan_consistency_under_writes () =
  (* Writers mutate pairs (k, k+shadow) keeping them equal via two puts
     inside an RMW-free window; a snapshot scan must never observe a torn
     pair because it reads one timestamp. Uses the multi-key invariant:
     value("p<i>") = value("q<i>") in every snapshot... writers update both
     keys with separate puts, so we assert the snapshot sees for each i
     either both old or both... that is NOT guaranteed by two separate puts.
     Instead writers write matching values derived from the snapshot ts
     ordering: each round writes p<i> then q<i> with the same round number;
     a snapshot taken at ts sees q's round <= p's round (q written later),
     never q > p. *)
  with_store (fun db _dir ->
      let rounds = 60 in
      let pairs = 8 in
      let writer () =
        for r = 1 to rounds do
          for i = 0 to pairs - 1 do
            Db.put db ~key:(Printf.sprintf "p%02d" i) ~value:(string_of_int r);
            Db.put db ~key:(Printf.sprintf "q%02d" i) ~value:(string_of_int r)
          done
        done;
        0
      in
      let scanner () =
        let bad = ref 0 in
        for _ = 1 to 40 do
          let s = Db.get_snap db in
          for i = 0 to pairs - 1 do
            let p = Db.get_at db s (Printf.sprintf "p%02d" i) in
            let q = Db.get_at db s (Printf.sprintf "q%02d" i) in
            match (p, q) with
            | Some p, Some q when int_of_string q > int_of_string p -> incr bad
            | None, Some _ -> incr bad (* q exists only after p *)
            | _ -> ()
          done;
          Db.release_snapshot db s
        done;
        !bad
      in
      let results = spawn_all [ writer; scanner; scanner ] in
      List.iter
        (fun bad -> Alcotest.(check int) "no inversion observed" 0 bad)
        (List.tl results))

let linearizable_snapshot_sees_own_writes () =
  with_store ~linearizable:true (fun db _dir ->
      Db.put db ~key:"mine" ~value:"42";
      let s = Db.get_snap db in
      Alcotest.(check (option string))
        "linearizable snapshot includes completed own write" (Some "42")
        (Db.get_at db s "mine");
      Db.release_snapshot db s)

(* ---------- Scans ---------- *)

let range_scan_basic () =
  with_store (fun db _dir ->
      List.iter
        (fun (k, v) -> Db.put db ~key:k ~value:v)
        [ ("b", "2"); ("a", "1"); ("d", "4"); ("c", "3"); ("e", "5") ];
      Db.delete db ~key:"c";
      Alcotest.(check (list (pair string string)))
        "full scan skips tombstones"
        [ ("a", "1"); ("b", "2"); ("d", "4"); ("e", "5") ]
        (Db.range db);
      Alcotest.(check (list (pair string string)))
        "bounded range"
        [ ("b", "2"); ("d", "4") ]
        (Db.range ~start:"b" ~stop:"e" db);
      Alcotest.(check (list (pair string string)))
        "limit" [ ("a", "1"); ("b", "2") ] (Db.range ~limit:2 db))

let scan_across_components () =
  with_store (fun db _dir ->
      (* Layer 1: on disk *)
      for i = 0 to 199 do
        Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"disk"
      done;
      Db.compact_now db;
      (* Layer 2: overwrite a slice in the memtable *)
      for i = 50 to 99 do
        Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"mem"
      done;
      (* Layer 3: delete a slice *)
      for i = 100 to 149 do
        Db.delete db ~key:(Printf.sprintf "k%04d" i)
      done;
      let result = Db.range db in
      Alcotest.(check int) "count" 150 (List.length result);
      List.iter
        (fun (k, v) ->
          let i = int_of_string (String.sub k 1 4) in
          let expected = if i >= 50 && i <= 99 then "mem" else "disk" in
          Alcotest.(check string) ("value of " ^ k) expected v)
        result;
      (* iterator seek semantics *)
      let it = Db.iterator db in
      Db.iter_seek it "k0100";
      Alcotest.(check string) "seek skips deleted run" "k0150" (Db.iter_key it);
      Db.iter_close it)

let snapshot_scan_is_frozen () =
  with_store (fun db _dir ->
      for i = 0 to 49 do
        Db.put db ~key:(Printf.sprintf "k%02d" i) ~value:"before"
      done;
      let s = Db.get_snap db in
      for i = 0 to 49 do
        Db.put db ~key:(Printf.sprintf "k%02d" i) ~value:"after"
      done;
      Db.put db ~key:"zz-extra" ~value:"after";
      let snap_view = Db.range ~snapshot:s db in
      Alcotest.(check int) "snapshot key count" 50 (List.length snap_view);
      List.iter
        (fun (_, v) -> Alcotest.(check string) "frozen value" "before" v)
        snap_view;
      Db.release_snapshot db s;
      Alcotest.(check int) "live sees new key" 51 (List.length (Db.range db)))

(* ---------- RMW ---------- *)

let rmw_counter_sequential () =
  with_store (fun db _dir ->
      for _ = 1 to 100 do
        ignore
          (Db.rmw db ~key:"ctr" (fun v ->
               let n = match v with Some s -> int_of_string s | None -> 0 in
               Db.Set (string_of_int (n + 1))))
      done;
      Alcotest.(check (option string)) "count" (Some "100") (Db.get db "ctr"))

let rmw_counter_concurrent () =
  with_store ~memtable_bytes:(1 lsl 20) (fun db _dir ->
      let per_domain = 800 in
      let worker () =
        for _ = 1 to per_domain do
          ignore
            (Db.rmw db ~key:"ctr" (fun v ->
                 let n = match v with Some s -> int_of_string s | None -> 0 in
                 Db.Set (string_of_int (n + 1))))
        done;
        0
      in
      ignore (spawn_all [ worker; worker; worker; worker ]);
      Alcotest.(check (option string)) "no lost updates"
        (Some (string_of_int (4 * per_domain)))
        (Db.get db "ctr"))

let rmw_put_if_absent () =
  with_store (fun db _dir ->
      Alcotest.(check bool) "first wins" true
        (Db.put_if_absent db ~key:"k" ~value:"v1");
      Alcotest.(check bool) "second loses" false
        (Db.put_if_absent db ~key:"k" ~value:"v2");
      Alcotest.(check (option string)) "value" (Some "v1") (Db.get db "k");
      Db.delete db ~key:"k";
      Alcotest.(check bool) "after delete wins again" true
        (Db.put_if_absent db ~key:"k" ~value:"v3");
      Alcotest.(check (option string)) "value v3" (Some "v3") (Db.get db "k"))

let rmw_remove_and_abort () =
  with_store (fun db _dir ->
      Db.put db ~key:"k" ~value:"v";
      let pre = Db.rmw db ~key:"k" (fun _ -> Db.Remove) in
      Alcotest.(check (option string)) "pre-image" (Some "v") pre;
      Alcotest.(check (option string)) "removed" None (Db.get db "k");
      let pre = Db.rmw db ~key:"k" (fun v ->
          Alcotest.(check (option string)) "reads deleted as None" None v;
          Db.Abort)
      in
      Alcotest.(check (option string)) "abort pre-image" None pre;
      Alcotest.(check (option string)) "still absent" None (Db.get db "k"))

let rmw_put_if_absent_race () =
  with_store ~memtable_bytes:(1 lsl 20) (fun db _dir ->
      let n = 500 in
      let winner_count = Atomic.make 0 in
      let worker tag () =
        for i = 0 to n - 1 do
          if Db.put_if_absent db ~key:(Printf.sprintf "k%04d" i)
               ~value:(string_of_int tag)
          then Atomic.incr winner_count
        done;
        0
      in
      ignore (spawn_all [ worker 1; worker 2; worker 3 ]);
      Alcotest.(check int) "each key claimed exactly once" n
        (Atomic.get winner_count))

(* ---------- Recovery ---------- *)

let recovery_roundtrip () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  for i = 0 to 299 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(Printf.sprintf "v%d" i)
  done;
  Db.delete db ~key:"k0100";
  Db.flush_wal db;
  Db.close db;
  let db = Db.open_store opts in
  let missing = ref 0 in
  for i = 0 to 299 do
    let expected =
      if i = 100 then None else Some (Printf.sprintf "v%d" i)
    in
    if Db.get db (Printf.sprintf "k%04d" i) <> expected then incr missing
  done;
  Alcotest.(check int) "all recovered" 0 !missing;
  (* New writes still work and a second recovery still holds. *)
  Db.put db ~key:"post" ~value:"recovery";
  Db.compact_now db;
  Db.close db;
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "post" (Some "recovery") (Db.get db "post");
  Alcotest.(check (option string)) "old" (Some "v42") (Db.get db "k0042");
  Db.close db

let recovery_with_disk_and_wal_mix () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  for i = 0 to 199 do
    Db.put db ~key:(Printf.sprintf "base%04d" i) ~value:"disk"
  done;
  Db.compact_now db;
  (* these stay in the WAL only *)
  for i = 0 to 49 do
    Db.put db ~key:(Printf.sprintf "wal%04d" i) ~value:"mem"
  done;
  Db.put db ~key:"base0000" ~value:"overwritten";
  Db.flush_wal db;
  Db.close db;
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "disk survives" (Some "disk")
    (Db.get db "base0123");
  Alcotest.(check (option string)) "wal replayed" (Some "mem")
    (Db.get db "wal0042");
  Alcotest.(check (option string)) "wal overwrite wins" (Some "overwritten")
    (Db.get db "base0000");
  Db.close db

let recovery_unordered_wal () =
  (* cLSM logs may be written out of timestamp order (§4); recovery must
     restore timestamp order. Forge a log with out-of-order records. *)
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  Db.put db ~key:"seed" ~value:"x";
  Db.flush_wal db;
  Db.close db;
  (* Append records with inverted timestamp order to the live WAL. *)
  let wal_file =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.sort compare |> List.rev |> List.hd
  in
  let path = Filename.concat dir wal_file in
  let existing = In_channel.with_open_bin path In_channel.input_all in
  let buf = Buffer.create 256 in
  Buffer.add_string buf existing;
  let add ts value =
    Clsm_wal.Wal_record.encode buf
      (Log_record.encode
         { Log_record.ts; user_key = "k"; entry = Entry.Value value })
  in
  add 1000 "newest";
  add 999 "older";
  add 998 "oldest";
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  let db = Db.open_store opts in
  Alcotest.(check (option string))
    "timestamp order restored (newest wins despite log order)"
    (Some "newest") (Db.get db "k");
  Db.close db

let wal_disabled_loses_memtable_only () =
  let dir = fresh_dir () in
  let opts = small_opts ~wal_enabled:false dir in
  let db = Db.open_store opts in
  for i = 0 to 99 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"flushed"
  done;
  Db.compact_now db;
  Db.put db ~key:"volatile" ~value:"lost";
  Db.close db;
  let db = Db.open_store opts in
  Alcotest.(check (option string)) "flushed data persists" (Some "flushed")
    (Db.get db "k0050");
  Alcotest.(check (option string)) "unflushed data lost without WAL" None
    (Db.get db "volatile");
  Db.close db

(* ---------- Group-commit WAL ---------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Every rotation opens a fresh group-mode log, with its own wake-up
   pipe, and the flush retires the old one: 20 rotations must leave the
   process's descriptor count where it was. *)
let group_rotations_release_fds () =
  if Sys.file_exists "/proc/self/fd" then begin
    let dir = fresh_dir () in
    let opts =
      {
        (small_opts dir) with
        Options.wal_sync = `Group Options.default_group_commit;
      }
    in
    let before = open_fds () in
    let db = Db.open_store opts in
    for i = 1 to 20 do
      Db.put db ~key:(Printf.sprintf "k%02d" i) ~value:"v";
      Db.compact_now db
    done;
    let rotations = (Db.stats db).Stats.memtable_rotations in
    Db.close db;
    Alcotest.(check bool)
      (Printf.sprintf "%d rotations" rotations)
      true (rotations >= 20);
    Alcotest.(check int) "descriptors released" before (open_fds ())
  end

(* ---------- Concurrency ---------- *)

let concurrent_put_get_during_merges () =
  with_store ~memtable_bytes:(8 * 1024) (fun db _dir ->
      let n = 1_500 in
      let writer tag () =
        for i = 0 to n - 1 do
          Db.put db
            ~key:(Printf.sprintf "%c%05d" tag i)
            ~value:(Printf.sprintf "%c%d" tag i)
        done;
        0
      in
      let reader () =
        let wrong = ref 0 in
        for round = 1 to 3 do
          ignore round;
          for i = 0 to n - 1 do
            match Db.get db (Printf.sprintf "a%05d" i) with
            | Some v when v <> Printf.sprintf "a%d" i -> incr wrong
            | Some _ | None -> ()
          done
        done;
        !wrong
      in
      let results = spawn_all [ writer 'a'; writer 'b'; reader ] in
      Alcotest.(check int) "no wrong values under merges" 0 (List.nth results 2);
      (* Everything readable afterwards, across many rotations. *)
      Alcotest.(check bool) "rotations happened" true
        ((Db.stats db).Stats.memtable_rotations > 0);
      let missing = ref 0 in
      for i = 0 to n - 1 do
        if Db.get db (Printf.sprintf "a%05d" i) = None then incr missing;
        if Db.get db (Printf.sprintf "b%05d" i) = None then incr missing
      done;
      Alcotest.(check int) "nothing lost" 0 !missing)

let concurrent_snapshots_and_writes () =
  with_store ~memtable_bytes:(8 * 1024) (fun db _dir ->
      let stop = Atomic.make false in
      let writer () =
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          Db.put db ~key:"x" ~value:(string_of_int !i);
          Db.put db ~key:"y" ~value:(string_of_int !i)
        done;
        0
      in
      let snapshotter () =
        let bad = ref 0 in
        for _ = 1 to 300 do
          let s = Db.get_snap db in
          (match (Db.get_at db s "x", Db.get_at db s "y") with
          | Some x, Some y when int_of_string y > int_of_string x -> incr bad
          | None, Some _ -> incr bad
          | _ -> ());
          Db.release_snapshot db s
        done;
        Atomic.set stop true;
        !bad
      in
      let results = spawn_all [ writer; snapshotter ] in
      Alcotest.(check int) "snapshots always consistent" 0 (List.nth results 1))

(* ---------- Maintenance behaviour ---------- *)

let tombstones_gc_at_bottom () =
  with_store (fun db _dir ->
      for i = 0 to 199 do
        Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:"v"
      done;
      Db.compact_now db;
      for i = 0 to 199 do
        Db.delete db ~key:(Printf.sprintf "k%04d" i)
      done;
      Db.compact_now db;
      Db.compact_now db;
      Alcotest.(check (list (pair string string))) "empty view" [] (Db.range db))

let stats_populated () =
  with_store (fun db _dir ->
      Db.put db ~key:"a" ~value:"1";
      ignore (Db.get db "a");
      Db.delete db ~key:"a";
      ignore (Db.rmw db ~key:"a" (fun _ -> Db.Abort));
      let s = Db.get_snap db in
      Db.release_snapshot db s;
      ignore (Db.range db);
      let st = Db.stats db in
      Alcotest.(check int) "puts" 1 st.Stats.puts;
      Alcotest.(check bool) "gets" true (st.Stats.gets >= 1);
      Alcotest.(check int) "deletes" 1 st.Stats.deletes;
      Alcotest.(check int) "rmws" 1 st.Stats.rmws;
      Alcotest.(check bool) "snapshots" true (st.Stats.snapshots_taken >= 1);
      Alcotest.(check bool) "scans" true (st.Stats.scans >= 1))

let suites =
  [
    ( "core.memtable",
      [
        Alcotest.test_case "multi-version get" `Quick memtable_versions;
        Alcotest.test_case "duplicate (ts) ignored" `Quick memtable_duplicate_ignored;
        Alcotest.test_case "user key isolation" `Quick memtable_user_key_isolation;
        Alcotest.test_case "RMW locate/install protocol" `Quick memtable_rmw_protocol;
      ] );
    ( "core.db.basic",
      [
        Alcotest.test_case "put/get/overwrite" `Quick basic_put_get;
        Alcotest.test_case "delete semantics" `Quick delete_semantics;
        Alcotest.test_case "read through components" `Quick
          read_through_all_components;
        Alcotest.test_case "2k keys roundtrip" `Quick many_keys_roundtrip;
      ] );
    ( "core.db.snapshots",
      [
        Alcotest.test_case "isolation" `Quick snapshot_isolation;
        Alcotest.test_case "survives compaction" `Quick
          snapshot_survives_compaction;
        Alcotest.test_case "no inversions under writes" `Quick
          snapshot_scan_consistency_under_writes;
        Alcotest.test_case "linearizable variant" `Quick
          linearizable_snapshot_sees_own_writes;
      ] );
    ( "core.db.scans",
      [
        Alcotest.test_case "range basics" `Quick range_scan_basic;
        Alcotest.test_case "across components" `Quick scan_across_components;
        Alcotest.test_case "snapshot scan frozen" `Quick snapshot_scan_is_frozen;
      ] );
    ( "core.db.rmw",
      [
        Alcotest.test_case "sequential counter" `Quick rmw_counter_sequential;
        Alcotest.test_case "concurrent counter (no lost updates)" `Quick
          rmw_counter_concurrent;
        Alcotest.test_case "put-if-absent" `Quick rmw_put_if_absent;
        Alcotest.test_case "remove and abort" `Quick rmw_remove_and_abort;
        Alcotest.test_case "put-if-absent race" `Quick rmw_put_if_absent_race;
      ] );
    ( "core.db.recovery",
      [
        Alcotest.test_case "roundtrip" `Quick recovery_roundtrip;
        Alcotest.test_case "disk + wal mix" `Quick recovery_with_disk_and_wal_mix;
        Alcotest.test_case "unordered wal records" `Quick recovery_unordered_wal;
        Alcotest.test_case "wal disabled" `Quick wal_disabled_loses_memtable_only;
      ] );
    ( "core.db.wal",
      [
        Alcotest.test_case "group rotations release fds" `Quick
          group_rotations_release_fds;
      ] );
    ( "core.db.concurrent",
      [
        Alcotest.test_case "put/get during merges" `Quick
          concurrent_put_get_during_merges;
        Alcotest.test_case "snapshots vs writes" `Quick
          concurrent_snapshots_and_writes;
      ] );
    ( "core.db.maintenance",
      [
        Alcotest.test_case "tombstone GC at bottom" `Quick tombstones_gc_at_bottom;
        Alcotest.test_case "stats populated" `Quick stats_populated;
      ] );
  ]
