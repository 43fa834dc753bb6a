open Clsm_util

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---------- Varint ---------- *)

let varint_roundtrip_buffer () =
  let values = [ 0; 1; 127; 128; 300; 16384; max_int; max_int - 1 ] in
  let buf = Buffer.create 64 in
  List.iter (Varint.write buf) values;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun expected ->
      let v, next = Varint.read s ~pos:!pos in
      Alcotest.(check int) "value" expected v;
      pos := next)
    values;
  Alcotest.(check int) "consumed all" (String.length s) !pos

let varint_encoded_length () =
  Alcotest.(check int) "0" 1 (Varint.encoded_length 0);
  Alcotest.(check int) "127" 1 (Varint.encoded_length 127);
  Alcotest.(check int) "128" 2 (Varint.encoded_length 128);
  Alcotest.(check int) "max_int" 9 (Varint.encoded_length max_int)

let varint_put_matches_write () =
  let v = 987654321 in
  let buf = Buffer.create 16 in
  Varint.write buf v;
  let b = Bytes.make 16 '\xff' in
  let next = Varint.put b ~pos:0 v in
  Alcotest.(check string)
    "same bytes" (Buffer.contents buf)
    (Bytes.sub_string b 0 next)

let varint_truncated () =
  let buf = Buffer.create 16 in
  Varint.write buf 300;
  let s = String.sub (Buffer.contents buf) 0 1 in
  Alcotest.check_raises "truncated" (Varint.Corrupt "varint truncated")
    (fun () -> ignore (Varint.read s ~pos:0))

let varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint: negative value")
    (fun () -> ignore (Varint.encoded_length (-1)))

let varint_too_long () =
  let s = String.make 12 '\x80' in
  match Varint.read s ~pos:0 with
  | exception Varint.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(map abs int)
    (fun v ->
      let buf = Buffer.create 16 in
      Varint.write buf v;
      let s = Buffer.contents buf in
      let v', next = Varint.read s ~pos:0 in
      v = v' && next = String.length s && next = Varint.encoded_length v)

(* ---------- Binary ---------- *)

let fixed32_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 8 in
      Binary.write_fixed32 buf v;
      Alcotest.(check int) "fixed32" v
        (Binary.get_fixed32 (Buffer.contents buf) ~pos:0))
    [ 0; 1; 0xffffffff; 0xdeadbeef; 0x7fffffff ]

let fixed64_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 8 in
      Binary.write_fixed64 buf v;
      Alcotest.(check int) "fixed64" v
        (Binary.get_fixed64 (Buffer.contents buf) ~pos:0))
    [ 0; 1; max_int; 0x123456789abcdef ]

let prop_fixed64_put_get =
  QCheck.Test.make ~name:"fixed64 put/get" ~count:500
    QCheck.(map abs int)
    (fun v ->
      let b = Bytes.create 8 in
      Binary.put_fixed64 b ~pos:0 v;
      Binary.get_fixed64 (Bytes.to_string b) ~pos:0 = v)

(* ---------- Crc32c ---------- *)

let crc_known_vector () =
  (* Standard CRC-32C check value for "123456789". *)
  Alcotest.(check int) "check value" 0xE3069283 (Crc32c.string "123456789")

let crc_empty () = Alcotest.(check int) "empty" 0 (Crc32c.string "")

let crc_incremental () =
  let s = "hello, log-structured world" in
  let mid = 10 in
  let part = Crc32c.sub s ~pos:0 ~len:mid in
  let full = Crc32c.sub ~init:part s ~pos:mid ~len:(String.length s - mid) in
  Alcotest.(check int) "incremental = one-shot" (Crc32c.string s) full

let crc_mask_roundtrip () =
  List.iter
    (fun s ->
      let crc = Crc32c.string s in
      Alcotest.(check int) "unmask(mask)" crc (Crc32c.unmask (Crc32c.mask crc));
      Alcotest.(check bool) "mask changes value" true (Crc32c.mask crc <> crc))
    [ "a"; "ab"; "payload"; String.make 1000 'x' ]

let crc_detects_flip () =
  let s = Bytes.of_string "some record payload" in
  let before = Crc32c.string (Bytes.to_string s) in
  Bytes.set s 3 'X';
  Alcotest.(check bool) "differs" true
    (before <> Crc32c.string (Bytes.to_string s))

(* The RFC 3720 (iSCSI) appendix B.4 CRC-32C test vectors. *)
let crc_rfc3720_vectors () =
  List.iter
    (fun (name, s, expected) ->
      Alcotest.(check int) name expected (Crc32c.string s))
    [
      ("32 x 0x00", String.make 32 '\x00', 0x8A9136AA);
      ("32 x 0xff", String.make 32 '\xff', 0x62A8AB43);
      ("ascending 0..31", String.init 32 Char.chr, 0x46DD794E);
      ("descending 31..0", String.init 32 (fun i -> Char.chr (31 - i)), 0x113FDB5C);
    ]

(* Byte-at-a-time reference: the textbook reflected table loop. *)
let crc_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0x82F63B78 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  fun ?(init = 0) s ~pos ~len ->
    let crc = ref (init lxor 0xffffffff) in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
    done;
    !crc lxor 0xffffffff

(* Every pos mod 8, short lengths around the 8-byte step and random long
   ones, chained through [~init] at a random split: once per
   implementation, the portable loop always and the hardware one when
   this CPU has it. *)
let prop_crc_matches_reference name
    (sub : ?init:int -> string -> pos:int -> len:int -> int) =
  let gen =
    QCheck.Gen.(
      let* pos = 0 -- 15 in
      let* len = frequency [ (3, 0 -- 40); (1, 41 -- 5000) ] in
      let* pad = 0 -- 9 in
      let* s = string_size ~gen:char (return (pos + len + pad)) in
      let* split = 0 -- len in
      let* init = frequency [ (1, return 0); (1, map (fun x -> x land 0xffffffff) int) ] in
      return (s, pos, len, split, init))
  in
  QCheck.Test.make ~name:(name ^ " = byte-at-a-time reference") ~count:2000
    (QCheck.make
       ~print:(fun (s, pos, len, split, init) ->
         Printf.sprintf "len(s)=%d pos=%d len=%d split=%d init=%#x"
           (String.length s) pos len split init)
       gen)
    (fun (s, pos, len, split, init) ->
      let whole = sub ~init s ~pos ~len in
      let chained =
        sub
          ~init:(sub ~init s ~pos ~len:split)
          s ~pos:(pos + split) ~len:(len - split)
      in
      whole = crc_reference ~init s ~pos ~len && chained = whole)

let crc_props =
  prop_crc_matches_reference "slicing-by-8" Crc32c.portable_sub
  ::
  (if Crc32c.implementation = "portable" then []
   else [ prop_crc_matches_reference Crc32c.implementation Crc32c.sub ])

let crc_rejects_out_of_bounds () =
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos=%d len=%d" pos len)
        (Invalid_argument "Crc32c.sub")
        (fun () -> ignore (Crc32c.sub "0123456789" ~pos ~len)))
    [ (-1, 1); (0, -1); (3, 8); (11, 0) ]

(* ---------- Hashing ---------- *)

let hash_deterministic () =
  Alcotest.(check int) "same input same hash" (Hashing.hash "abc")
    (Hashing.hash "abc");
  Alcotest.(check bool) "different seeds differ" true
    (Hashing.hash ~seed:1 "abc" <> Hashing.hash ~seed:2 "abc")

let hash_in_range () =
  List.iter
    (fun s ->
      let h = Hashing.hash s in
      Alcotest.(check bool) "32-bit" true (h >= 0 && h <= 0xffffffff))
    [ ""; "a"; "ab"; "abc"; "abcd"; "abcde"; String.make 100 'z' ]

let mix64_spreads () =
  (* Consecutive inputs should land in different buckets most of the time. *)
  let buckets = Array.make 16 0 in
  for i = 0 to 999 do
    let b = Hashing.mix64 i land 15 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket roughly uniform" true (c > 20))
    buckets

let prop_hash64_nonnegative =
  QCheck.Test.make ~name:"hash64 nonnegative" ~count:300
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Hashing.hash64 s >= 0)

(* ---------- Histogram ---------- *)

(* Latencies spread over every octave the histogram resolves, zero
   included, so the exact region, the log-linear region and the octave
   edges are all exercised. *)
let latency_gen = QCheck.Gen.(int_range 0 39 >>= fun e -> int_bound (1 lsl e))

let latencies =
  QCheck.make ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (1 -- 300) latency_gen)

let prop_histogram_percentile_within_bucket =
  QCheck.Test.make ~name:"percentile within 2^(1/8) of the order statistic"
    ~count:300
    QCheck.(pair latencies (float_range 0.0 100.0))
    (fun (samples, pct) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (float_of_int n *. pct /. 100.0))) in
      let exact = float_of_int sorted.(rank - 1) in
      let got = float_of_int (Histogram.percentile h pct) in
      let bound = Float.pow 2.0 0.125 in
      if exact = 0.0 then got = 0.0
      else got <= exact *. bound && exact <= got *. bound)

let prop_histogram_merge_is_union =
  QCheck.Test.make ~name:"merge equals recording both inputs" ~count:200
    QCheck.(pair latencies latencies)
    (fun (xs, ys) ->
      let of_list l =
        let h = Histogram.create () in
        List.iter (Histogram.record h) l;
        h
      in
      let merged = Histogram.merge [ of_list xs; of_list ys ] in
      let both = of_list (xs @ ys) in
      Histogram.counts merged = Histogram.counts both
      && Histogram.sum_ns merged = Histogram.sum_ns both
      && Histogram.count merged = List.length xs + List.length ys)

let histogram_concurrent_record () =
  let domains = 4 and per_domain = 100_000 in
  let h = Histogram.create () in
  let value d i = (i * 7919 + d) mod 5_000_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Histogram.record h (value d i)
            done))
  in
  List.iter Domain.join workers;
  let sequential = Histogram.create () in
  for d = 0 to domains - 1 do
    for i = 1 to per_domain do
      Histogram.record sequential (value d i)
    done
  done;
  Alcotest.(check int) "count" (domains * per_domain) (Histogram.count h);
  Alcotest.(check int) "sum" (Histogram.sum_ns sequential) (Histogram.sum_ns h);
  Alcotest.(check (array int)) "buckets" (Histogram.counts sequential)
    (Histogram.counts h)

let suites =
  [
    ( "util.varint",
      [
        Alcotest.test_case "roundtrip via buffer" `Quick varint_roundtrip_buffer;
        Alcotest.test_case "encoded_length" `Quick varint_encoded_length;
        Alcotest.test_case "put matches write" `Quick varint_put_matches_write;
        Alcotest.test_case "truncated input" `Quick varint_truncated;
        Alcotest.test_case "negative rejected" `Quick varint_negative;
        Alcotest.test_case "over-long rejected" `Quick varint_too_long;
      ] );
    qsuite "util.varint.props" [ prop_varint_roundtrip ];
    ( "util.binary",
      [
        Alcotest.test_case "fixed32 roundtrip" `Quick fixed32_roundtrip;
        Alcotest.test_case "fixed64 roundtrip" `Quick fixed64_roundtrip;
      ] );
    qsuite "util.binary.props" [ prop_fixed64_put_get ];
    ( "util.crc32c",
      [
        Alcotest.test_case "known vector" `Quick crc_known_vector;
        Alcotest.test_case "empty" `Quick crc_empty;
        Alcotest.test_case "incremental" `Quick crc_incremental;
        Alcotest.test_case "mask roundtrip" `Quick crc_mask_roundtrip;
        Alcotest.test_case "detects bit flip" `Quick crc_detects_flip;
        Alcotest.test_case "RFC 3720 vectors" `Quick crc_rfc3720_vectors;
        Alcotest.test_case "bounds" `Quick crc_rejects_out_of_bounds;
      ] );
    qsuite "util.crc32c.props" crc_props;
    ( "util.hashing",
      [
        Alcotest.test_case "deterministic" `Quick hash_deterministic;
        Alcotest.test_case "32-bit range" `Quick hash_in_range;
        Alcotest.test_case "mix64 spreads" `Quick mix64_spreads;
      ] );
    qsuite "util.hashing.props" [ prop_hash64_nonnegative ];
    ( "util.histogram",
      [
        Alcotest.test_case "4 domains lose no count" `Quick
          histogram_concurrent_record;
      ] );
    qsuite "util.histogram.props"
      [ prop_histogram_percentile_within_bucket; prop_histogram_merge_is_union ];
  ]
