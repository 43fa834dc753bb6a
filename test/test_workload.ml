open Clsm_workload
module Histogram = Clsm_util.Histogram

(* ---------- Rng ---------- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.next (Rng.create 42) <> Rng.next c)

let rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let rng_split_independent () =
  let parent = Rng.create 1 in
  let a = Rng.split parent and b = Rng.split parent in
  Alcotest.(check bool) "split streams differ" true (Rng.next a <> Rng.next b)

(* ---------- Key_dist ---------- *)

let frequencies dist rng ~draws ~space =
  let counts = Array.make space 0 in
  for _ = 1 to draws do
    let i = Key_dist.next_index dist rng in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let uniform_covers_space () =
  let space = 1000 in
  let counts =
    frequencies (Key_dist.uniform space) (Rng.create 3) ~draws:50_000 ~space
  in
  let hit = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  Alcotest.(check bool) "most keys hit" true (hit > 900);
  let mx = Array.fold_left max 0 counts in
  Alcotest.(check bool) "no huge spike" true (mx < 200)

let skewed_blocks_concentrates () =
  let space = 100_000 in
  let dist = Key_dist.skewed_blocks space in
  let counts = frequencies dist (Rng.create 5) ~draws:100_000 ~space in
  (* Top 10% of keys by frequency should hold ~90% of draws. *)
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let top = Array.sub sorted 0 (space / 10) in
  let top_mass = Array.fold_left ( + ) 0 top in
  Alcotest.(check bool)
    (Printf.sprintf "top 10%% of keys draw %d/100000" top_mass)
    true
    (top_mass > 85_000)

let heavy_tail_statistics () =
  let space = 100_000 in
  let dist = Key_dist.heavy_tail space in
  let counts = frequencies dist (Rng.create 11) ~draws:200_000 ~space in
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let mass n =
    let sub = Array.sub sorted 0 n in
    Array.fold_left ( + ) 0 sub
  in
  (* §5.2: ~10% of keys ≥ 75% of requests; top 2% ≥ 50%. *)
  Alcotest.(check bool) "top 10% >= 70% of mass" true
    (mass (space / 10) >= 140_000);
  Alcotest.(check bool) "top 2% >= 45% of mass" true
    (mass (space / 50) >= 90_000)

let zipf_is_skewed_and_in_range () =
  let space = 10_000 in
  let dist = Key_dist.zipf space in
  let rng = Rng.create 13 in
  let counts = frequencies dist rng ~draws:50_000 ~space in
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  Alcotest.(check bool) "hottest key is hot" true (sorted.(0) > 500)

let sequential_in_order () =
  let dist = Key_dist.sequential 100 in
  let rng = Rng.create 1 in
  let first = List.init 5 (fun _ -> Key_dist.next_index dist rng) in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2; 3; 4 ] first

let key_encoding_sorted () =
  let k1 = Key_dist.key_of_index 5 and k2 = Key_dist.key_of_index 50 in
  Alcotest.(check bool) "sortable" true (k1 < k2);
  Alcotest.(check int) "default len" 8 (String.length k1);
  Alcotest.(check int) "custom len" 40 (String.length (Key_dist.key_of_index ~key_len:40 7))

(* ---------- Histogram ---------- *)

let histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h (i * 1000)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50.0 in
  let p90 = Histogram.percentile h 90.0 in
  let p99 = Histogram.percentile h 99.0 in
  let close name got expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s %dns ~ %.0fns" name got expected)
      true
      (float_of_int got > expected *. 0.8 && float_of_int got < expected *. 1.25)
  in
  close "p50" p50 500e3;
  close "p90" p90 900e3;
  close "p99" p99 990e3;
  Alcotest.(check bool) "ordered" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check (float 1e-6)) "mean" 500_500.0 (Histogram.mean_ns h);
  close "p100 is the max" (Histogram.percentile h 100.0) 1000e3

let histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 1_000;
  Histogram.record b 100_000;
  let m = Histogram.merge [ a; b ] in
  Alcotest.(check int) "merged count" 2 (Histogram.count m);
  Alcotest.(check int) "merged sum" 101_000 (Histogram.sum_ns m);
  Alcotest.(check bool) "p99 from b" true (Histogram.percentile m 99.0 > 50_000)

let histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h 90.0);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Histogram.mean_ns h)

(* ---------- Workload_spec ---------- *)

let spec_ratios () =
  let spec =
    Workload_spec.make ~name:"t" ~read:1.0 ~write:1.0 ~scan:2.0
      (Key_dist.uniform 10)
  in
  let rng = Rng.create 17 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let op = Workload_spec.next_op spec rng in
    Hashtbl.replace counts op (1 + Option.value ~default:0 (Hashtbl.find_opt counts op))
  done;
  let get op = Option.value ~default:0 (Hashtbl.find_opt counts op) in
  Alcotest.(check bool) "reads ~25%" true
    (abs (get Workload_spec.Read - 2500) < 300);
  Alcotest.(check bool) "scans ~50%" true
    (abs (get Workload_spec.Scan - 5000) < 400);
  Alcotest.(check int) "no rmw" 0 (get Workload_spec.Rmw)

let spec_value_sizes () =
  let spec = Workload_spec.production ~read_ratio:0.9 ~space:100 in
  let rng = Rng.create 19 in
  Alcotest.(check int) "1KB values" 1024
    (String.length (Workload_spec.value_for spec rng));
  Alcotest.(check int) "40B keys" 40
    (String.length (Workload_spec.next_key spec rng));
  let len = Workload_spec.scan_len spec rng in
  Alcotest.(check bool) "scan len in range" true (len >= 10 && len <= 20)

(* ---------- Driver over a real store ---------- *)

let driver_end_to_end () =
  let dir = Test_dirs.fresh "driver" () in
  let opts =
    {
      (Clsm_core.Options.default ~dir) with
      Clsm_core.Options.memtable_bytes = 1 lsl 20;
    }
  in
  let store = Store_ops.open_clsm opts in
  let spec = Workload_spec.mixed_read_write ~space:2_000 in
  Driver.preload store spec ~count:2_000;
  let r = Driver.run ~threads:2 ~ops_per_thread:2_000 store spec in
  Alcotest.(check int) "ops" 4_000 r.Driver.ops;
  Alcotest.(check bool) "throughput positive" true (r.Driver.throughput > 0.0);
  Alcotest.(check bool) "latencies ordered" true (r.Driver.p50 <= r.Driver.p99);
  store.Store_ops.close ()

let suites =
  [
    ( "workload.rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "ranges" `Quick rng_ranges;
        Alcotest.test_case "split" `Quick rng_split_independent;
      ] );
    ( "workload.key_dist",
      [
        Alcotest.test_case "uniform coverage" `Quick uniform_covers_space;
        Alcotest.test_case "skewed blocks 90/10" `Quick skewed_blocks_concentrates;
        Alcotest.test_case "heavy tail stats (production)" `Quick
          heavy_tail_statistics;
        Alcotest.test_case "zipf skew" `Quick zipf_is_skewed_and_in_range;
        Alcotest.test_case "sequential" `Quick sequential_in_order;
        Alcotest.test_case "key encoding" `Quick key_encoding_sorted;
      ] );
    ( "workload.histogram",
      [
        Alcotest.test_case "percentiles" `Quick histogram_percentiles;
        Alcotest.test_case "merge" `Quick histogram_merge;
        Alcotest.test_case "empty" `Quick histogram_empty;
      ] );
    ( "workload.spec",
      [
        Alcotest.test_case "op ratios" `Quick spec_ratios;
        Alcotest.test_case "sizes" `Quick spec_value_sizes;
      ] );
    ( "workload.driver",
      [ Alcotest.test_case "end to end" `Quick driver_end_to_end ] );
  ]
