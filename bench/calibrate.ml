(* Bechamel microbenchmarks of the real OCaml implementation. These are the
   measured single-thread service times backing the simulator's cost table
   (Costs.default documents the paper-derived values; rerun this to re-fit
   on new hardware). One Test.make per operation of interest. *)

open Bechamel
open Toolkit

let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "clsm_bench_%s_%d" name (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm d;
  d

module SL = Clsm_skiplist.Skiplist.Make (String)

let skiplist_tests () =
  let n = 100_000 in
  let filled = SL.create () in
  for i = 0 to n - 1 do
    ignore (SL.insert filled (Printf.sprintf "key%08d" i) i)
  done;
  let counter = ref n in
  let probe = ref 0 in
  [
    Test.make ~name:"skiplist/insert-100k"
      (Staged.stage (fun () ->
           incr counter;
           ignore (SL.insert filled (Printf.sprintf "key%08d" !counter) 0)));
    Test.make ~name:"skiplist/find-100k"
      (Staged.stage (fun () ->
           probe := (!probe + 7919) mod n;
           ignore (SL.find filled (Printf.sprintf "key%08d" !probe))));
  ]

let memtable_tests () =
  let module M = Clsm_core.Memtable in
  let m = M.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    M.add m ~user_key:(Printf.sprintf "key%08d" i) ~ts:(i + 1)
      (Clsm_lsm.Entry.Value "payload-256-bytes")
  done;
  let ts = ref n in
  let probe = ref 0 in
  [
    Test.make ~name:"memtable/add"
      (Staged.stage (fun () ->
           incr ts;
           M.add m ~user_key:(Printf.sprintf "key%08d" (!ts mod n)) ~ts:!ts
             (Clsm_lsm.Entry.Value "payload-256-bytes")));
    Test.make ~name:"memtable/get"
      (Staged.stage (fun () ->
           probe := (!probe + 104729) mod n;
           ignore
             (M.get m
                ~user_key:(Printf.sprintf "key%08d" !probe)
                ~snap_ts:max_int)));
  ]

let bloom_test () =
  let keys = List.init 10_000 (Printf.sprintf "key%08d") in
  let filter = Clsm_sstable.Bloom.create keys in
  let probe = ref 0 in
  [
    Test.make ~name:"bloom/mem"
      (Staged.stage (fun () ->
           incr probe;
           ignore (Clsm_sstable.Bloom.mem filter (Printf.sprintf "key%08d" !probe))));
  ]

let wal_test () =
  let dir = tmp_dir "wal" in
  Unix.mkdir dir 0o755;
  let w = Clsm_wal.Wal_writer.create (Filename.concat dir "bench.log") in
  let payload = String.make 264 'x' in
  [
    Test.make ~name:"wal/append-async"
      (Staged.stage (fun () -> Clsm_wal.Wal_writer.append w payload));
  ]

let db_tests () =
  let dir = tmp_dir "db" in
  let opts =
    {
      (Clsm_core.Options.default ~dir) with
      Clsm_core.Options.memtable_bytes = 1 lsl 30 (* avoid rotation mid-bench *);
      wal_enabled = true;
    }
  in
  let db = Clsm_core.Db.open_store opts in
  for i = 0 to 99_999 do
    Clsm_core.Db.put db ~key:(Printf.sprintf "key%08d" i) ~value:(String.make 256 'v')
  done;
  let i = ref 0 in
  let value = String.make 256 'w' in
  [
    Test.make ~name:"clsm/put"
      (Staged.stage (fun () ->
           incr i;
           Clsm_core.Db.put db
             ~key:(Printf.sprintf "key%08d" (!i mod 100_000))
             ~value));
    Test.make ~name:"clsm/get"
      (Staged.stage (fun () ->
           i := (!i + 104729) mod 100_000;
           ignore (Clsm_core.Db.get db (Printf.sprintf "key%08d" !i))));
    Test.make ~name:"clsm/get-snap"
      (Staged.stage (fun () ->
           Clsm_core.Db.release_snapshot db (Clsm_core.Db.get_snap db)));
    Test.make ~name:"clsm/rmw-counter"
      (Staged.stage (fun () ->
           ignore
             (Clsm_core.Db.rmw db ~key:"counter" (fun v ->
                  let n = match v with Some s -> int_of_string s | None -> 0 in
                  Clsm_core.Db.Set (string_of_int (n + 1))))));
  ]

let run () =
  let tests =
    skiplist_tests () @ memtable_tests () @ bloom_test () @ wal_test ()
    @ db_tests ()
  in
  let grouped = Test.make_grouped ~name:"calibrate" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== Calibration: measured single-thread service times ==\n";
  Printf.printf "%-28s %14s\n" "operation" "ns/op";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, est) -> Printf.printf "%-28s %14.1f\n" name est) rows;
  Printf.printf
    "(feed these into Clsm_sim_lsm.Costs to re-fit the simulator)\n%!"
