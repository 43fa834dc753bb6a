(* Assorted micro edge cases rounding out the per-module suites. *)

open Clsm_workload
module Histogram = Clsm_util.Histogram

(* ---------- skiplist degenerate shapes ---------- *)

module SL = Clsm_skiplist.Skiplist.Make (String)

let skiplist_height_one () =
  (* max_height 1 degenerates to a sorted linked list; everything must
     still work (the upper levels are only an optimization). *)
  let sl = SL.create ~max_height:1 ~seed:3 () in
  for i = 99 downto 0 do
    ignore (SL.insert sl (Printf.sprintf "k%03d" i) i)
  done;
  Alcotest.(check int) "all inserted" 100 (SL.length sl);
  Alcotest.(check (option int)) "find" (Some 42) (SL.find sl "k042");
  Alcotest.(check bool) "sorted" true
    (List.map fst (SL.to_list sl)
    = List.init 100 (Printf.sprintf "k%03d"))

let skiplist_cursor_sees_prior_inserts_after_seek () =
  let sl = SL.create ~seed:5 () in
  List.iter (fun k -> ignore (SL.insert sl k 0)) [ "b"; "d"; "f" ];
  let c = SL.Cursor.make sl in
  SL.Cursor.seek c "c";
  (* insert behind and ahead of the cursor, then walk *)
  ignore (SL.insert sl "a" 1);
  ignore (SL.insert sl "e" 1);
  let seen = ref [] in
  while SL.Cursor.valid c do
    seen := SL.Cursor.key c :: !seen;
    SL.Cursor.next c
  done;
  (* "d" and "f" were present at seek time and must appear; "e" may or may
     not, "a" must not (behind the cursor) *)
  let seen = List.rev !seen in
  Alcotest.(check bool) "d seen" true (List.mem "d" seen);
  Alcotest.(check bool) "f seen" true (List.mem "f" seen);
  Alcotest.(check bool) "a not seen" false (List.mem "a" seen)

(* ---------- histogram properties ---------- *)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 1 1_000_000_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      let ps = [ 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let values = List.map (Histogram.percentile h) ps in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted values)

let prop_histogram_percentile_brackets_max =
  QCheck.Test.make ~name:"p100 within a bucket of max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 100 100_000_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      let mx = float_of_int (List.fold_left max 0 samples) in
      let p100 = float_of_int (Histogram.percentile h 100.0) in
      p100 >= mx *. 0.85 && p100 <= mx *. 1.15)

(* ---------- wal large records ---------- *)

let wal_large_record () =
  let path = Filename.concat (Test_dirs.dir "misc") "wal_large" in
  let w =
    Clsm_wal.Wal_writer.create
      ~mode:(Clsm_wal.Wal_writer.Group { max_batch = 1; max_delay_us = 0 })
      path
  in
  let big = String.init 1_000_000 (fun i -> Char.chr (i mod 256)) in
  Clsm_wal.Wal_writer.append w big;
  Clsm_wal.Wal_writer.append w "small-after-big";
  Clsm_wal.Wal_writer.close w;
  (match Clsm_wal.Wal_reader.read_records path with
  | [ r1; r2 ], Clsm_wal.Wal_reader.Clean ->
      Alcotest.(check int) "big intact" 1_000_000 (String.length r1);
      Alcotest.(check bool) "content" true (r1 = big);
      Alcotest.(check string) "small after" "small-after-big" r2
  | _ -> Alcotest.fail "unexpected records");
  Sys.remove path

(* ---------- block with restart_interval 1 ---------- *)

let block_restart_every_entry () =
  let open Clsm_sstable in
  let b = Block_builder.create ~restart_interval:1 () in
  let pairs = List.init 50 (fun i -> (Printf.sprintf "key%04d" i, string_of_int i)) in
  List.iter (fun (k, v) -> Block_builder.add b ~key:k ~value:v) pairs;
  let block = Block.parse Comparator.bytewise (Block_builder.finish b) in
  Alcotest.(check int) "one restart per entry" 50 (Block.num_restarts block);
  Alcotest.(check (list (pair string string))) "contents" pairs
    (List.rev (Block.Iter.fold (fun k v a -> (k, v) :: a) block []))

(* ---------- internal key errors ---------- *)

let internal_key_errors () =
  let open Clsm_lsm in
  (match Internal_key.decode "short" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short decode accepted");
  match Internal_key.compare_encoded "abc" (Internal_key.make "a" 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short compare accepted"

(* ---------- sim engine clamping ---------- *)

let engine_past_schedule_clamps () =
  let open Clsm_sim in
  let e = Engine.create () in
  Engine.schedule_at e 5.0 (fun () -> ());
  Engine.run_all e;
  let fired_at = ref 0.0 in
  Engine.schedule_at e 1.0 (fun () -> fired_at := Engine.now e);
  Engine.run_all e;
  Alcotest.(check bool) "past event clamps to now" true (!fired_at >= 5.0)

(* ---------- store range corner cases ---------- *)

let range_corner_cases () =
  let dir = Test_dirs.fresh "misc_range" () in
  let db = Clsm_core.Db.open_store (Clsm_core.Options.default ~dir) in
  List.iter (fun k -> Clsm_core.Db.put db ~key:k ~value:k) [ "a"; "b"; "c" ];
  Alcotest.(check (list (pair string string))) "limit 0" []
    (Clsm_core.Db.range ~limit:0 db);
  Alcotest.(check (list (pair string string))) "start beyond stop" []
    (Clsm_core.Db.range ~start:"x" ~stop:"c" db);
  Alcotest.(check (list (pair string string))) "stop before first" []
    (Clsm_core.Db.range ~stop:"a" db);
  Alcotest.(check (list (pair string string))) "half-open excludes stop"
    [ ("a", "a"); ("b", "b") ]
    (Clsm_core.Db.range ~stop:"c" db);
  Clsm_core.Db.close db

(* ---------- rng statistical sanity ---------- *)

let prop_rng_uniformish =
  QCheck.Test.make ~name:"rng int roughly uniform" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let buckets = Array.make 10 0 in
      for _ = 1 to 5_000 do
        let b = Rng.int rng 10 in
        buckets.(b) <- buckets.(b) + 1
      done;
      Array.for_all (fun c -> c > 300 && c < 700) buckets)

let suites =
  [
    ( "misc.skiplist",
      [
        Alcotest.test_case "height-1 degenerates safely" `Quick skiplist_height_one;
        Alcotest.test_case "cursor weak consistency after seek" `Quick
          skiplist_cursor_sees_prior_inserts_after_seek;
      ] );
    ( "misc.histogram.props",
      List.map QCheck_alcotest.to_alcotest
        [ prop_histogram_percentile_monotone; prop_histogram_percentile_brackets_max ] );
    ( "misc.wal",
      [ Alcotest.test_case "1MB record" `Quick wal_large_record ] );
    ( "misc.block",
      [ Alcotest.test_case "restart interval 1" `Quick block_restart_every_entry ] );
    ( "misc.internal_key",
      [ Alcotest.test_case "errors" `Quick internal_key_errors ] );
    ( "misc.sim",
      [ Alcotest.test_case "past schedule clamps" `Quick engine_past_schedule_clamps ] );
    ( "misc.store",
      [ Alcotest.test_case "range corners" `Quick range_corner_cases ] );
    ( "misc.rng.props",
      List.map QCheck_alcotest.to_alcotest [ prop_rng_uniformish ] );
  ]
