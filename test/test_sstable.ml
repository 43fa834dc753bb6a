open Clsm_sstable

let tmp_dir = Test_dirs.dir "sstable"

let tmp_path name = Filename.concat tmp_dir name

(* ---------- Bloom ---------- *)

let bloom_no_false_negatives () =
  let keys = List.init 500 (fun i -> Printf.sprintf "key-%d" i) in
  let f = Bloom.create keys in
  List.iter
    (fun k -> Alcotest.(check bool) ("member " ^ k) true (Bloom.mem f k))
    keys

let bloom_false_positive_rate () =
  let keys = List.init 2000 (fun i -> Printf.sprintf "present-%d" i) in
  let f = Bloom.create ~bits_per_key:10 keys in
  let fps = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem f (Printf.sprintf "absent-%d" i) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  Alcotest.(check bool)
    (Printf.sprintf "fp rate %.4f < 0.03" rate)
    true (rate < 0.03)

let bloom_encode_decode () =
  let keys = [ "a"; "b"; "c"; "longer-key-here" ] in
  let f = Bloom.create keys in
  let f' = Bloom.decode (Bloom.encode f) in
  List.iter
    (fun k -> Alcotest.(check bool) "decoded member" true (Bloom.mem f' k))
    keys;
  Alcotest.(check int) "size" (String.length (Bloom.encode f))
    (Bloom.size_bytes f)

let bloom_empty () =
  let f = Bloom.create [] in
  (* No guarantees either way, but must not crash and must roundtrip. *)
  ignore (Bloom.mem f "anything");
  ignore (Bloom.decode (Bloom.encode f))

(* ---------- Block ---------- *)

let sorted_pairs n =
  List.init n (fun i -> (Printf.sprintf "key%06d" i, Printf.sprintf "val%d" i))

let build_block ?restart_interval pairs =
  let b = Block_builder.create ?restart_interval () in
  List.iter (fun (k, v) -> Block_builder.add b ~key:k ~value:v) pairs;
  Block.parse Comparator.bytewise (Block_builder.finish b)

let block_roundtrip () =
  let pairs = sorted_pairs 100 in
  let block = build_block pairs in
  Alcotest.(check (list (pair string string)))
    "all entries in order" pairs
    (List.rev (Block.Iter.fold (fun k v acc -> (k, v) :: acc) block []))

let block_seek () =
  let pairs = [ ("b", "1"); ("d", "2"); ("f", "3") ] in
  let block = build_block pairs in
  let it = Block.Iter.make block in
  let check_seek target expected =
    Block.Iter.seek it target;
    let got =
      if Block.Iter.valid it then Some (Block.Iter.key it) else None
    in
    Alcotest.(check (option string)) ("seek " ^ target) expected got
  in
  check_seek "a" (Some "b");
  check_seek "b" (Some "b");
  check_seek "c" (Some "d");
  check_seek "f" (Some "f");
  check_seek "g" None

let block_restart_compression () =
  (* Keys sharing long prefixes compress: serialized block should be much
     smaller than raw key bytes. *)
  let prefix = String.make 64 'p' in
  let pairs = List.init 64 (fun i -> (Printf.sprintf "%s%06d" prefix i, "v")) in
  let b = Block_builder.create ~restart_interval:16 () in
  List.iter (fun (k, v) -> Block_builder.add b ~key:k ~value:v) pairs;
  let serialized = Block_builder.finish b in
  let raw_bytes = List.fold_left (fun a (k, _) -> a + String.length k) 0 pairs in
  Alcotest.(check bool) "compressed" true
    (String.length serialized < raw_bytes / 2);
  (* And still decodes correctly. *)
  let block = Block.parse Comparator.bytewise serialized in
  Alcotest.(check (list (pair string string)))
    "decodes" pairs
    (List.rev (Block.Iter.fold (fun k v acc -> (k, v) :: acc) block []))

let block_single_entry_and_corrupt () =
  let block = build_block [ ("only", "v") ] in
  let it = Block.Iter.make block in
  Block.Iter.seek_to_first it;
  Alcotest.(check string) "only key" "only" (Block.Iter.key it);
  Block.Iter.next it;
  Alcotest.(check bool) "exhausted" false (Block.Iter.valid it);
  (match Block.parse Comparator.bytewise "" with
  | exception Block.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty block should be corrupt");
  match Block.parse Comparator.bytewise "\xff\xff\xff\xff" with
  | exception Block.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad restart count should be corrupt"

let prop_block_matches_list =
  QCheck.Test.make ~name:"block roundtrip (random sorted keys)" ~count:100
    QCheck.(list (pair (string_of_size Gen.(1 -- 12)) (string_of_size Gen.(0 -- 20))))
    (fun pairs ->
      let module M = Map.Make (String) in
      let pairs =
        M.bindings (List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs)
      in
      QCheck.assume (pairs <> []);
      let block = build_block ~restart_interval:4 pairs in
      let got = List.rev (Block.Iter.fold (fun k v a -> (k, v) :: a) block []) in
      got = pairs)

let prop_block_seek_matches_model =
  QCheck.Test.make ~name:"block seek = first >= target" ~count:200
    QCheck.(
      pair
        (list (string_of_size Gen.(1 -- 6)))
        (string_of_size Gen.(1 -- 6)))
    (fun (keys, target) ->
      let keys = List.sort_uniq String.compare keys in
      QCheck.assume (keys <> []);
      let block = build_block ~restart_interval:3 (List.map (fun k -> (k, k)) keys) in
      let it = Block.Iter.make block in
      Block.Iter.seek it target;
      let got = if Block.Iter.valid it then Some (Block.Iter.key it) else None in
      let expected = List.find_opt (fun k -> k >= target) keys in
      got = expected)

let block_seek_le () =
  let pairs = [ ("b", "1"); ("d", "2"); ("f", "3") ] in
  let block = build_block pairs in
  let it = Block.Iter.make block in
  let check_seek_le target expected =
    Block.Iter.seek_le it target;
    let got = if Block.Iter.valid it then Some (Block.Iter.key it) else None in
    Alcotest.(check (option string)) ("seek_le " ^ target) expected got
  in
  check_seek_le "a" None;
  check_seek_le "b" (Some "b");
  check_seek_le "c" (Some "b");
  check_seek_le "e" (Some "d");
  check_seek_le "f" (Some "f");
  check_seek_le "z" (Some "f")

let prop_block_seek_le_matches_model =
  QCheck.Test.make ~name:"block seek_le = last <= target" ~count:300
    QCheck.(
      pair
        (list (string_of_size Gen.(1 -- 6)))
        (string_of_size Gen.(1 -- 6)))
    (fun (keys, target) ->
      let keys = List.sort_uniq String.compare keys in
      QCheck.assume (keys <> []);
      let block =
        build_block ~restart_interval:3 (List.map (fun k -> (k, k)) keys)
      in
      let it = Block.Iter.make block in
      Block.Iter.seek_le it target;
      let got = if Block.Iter.valid it then Some (Block.Iter.key it) else None in
      let expected =
        List.fold_left
          (fun acc k -> if k <= target then Some k else acc)
          None keys
      in
      got = expected)

(* The iterator against a sorted-list oracle. Every case builds one
   block, then for each target checks the entry [seek] or [seek_le]
   lands on, key and value, and every entry [next] reaches after it.
   Keys share a 14-byte prefix and differ in a short tail, so most
   entries store a byte or two of their own, and [next] after [seek] or
   [seek_le] continues from a key decoded whole at a restart, or rebuilt
   by the scan through a run, at restart and block edges. One iterator, rebound with [reset], serves
   every case, so stale key buffers from a previous block are exercised
   too. *)
type block_case = {
  internal : bool; (* Internal_key.comparator, else bytewise *)
  interval : int;
  entries : (string * string) list; (* sorted, distinct *)
  targets : string list;
}

let gen_block_case =
  let open QCheck.Gen in
  let tail = string_size ~gen:(char_range 'a' 'c') (0 -- 3) in
  let user_key = map (fun s -> "common-prefix/" ^ s) tail in
  let ts = oneof [ 0 -- 3; return Clsm_lsm.Internal_key.max_ts ] in
  bool >>= fun internal ->
  oneofl [ 1; 3; 16 ] >>= fun interval ->
  let key =
    if internal then map2 Clsm_lsm.Internal_key.make user_key ts else user_key
  in
  let cmp =
    if internal then Clsm_lsm.Internal_key.compare_encoded else String.compare
  in
  list_size (0 -- 60) key >>= fun keys ->
  let present = oneofl (if keys = [] then [ "" ] else keys) in
  list_size (1 -- 12) (oneof [ key; present ]) >>= fun targets ->
  let keys = List.sort_uniq cmp keys in
  let value i = Printf.sprintf "v%d%s" i (String.make (i mod 7) 'x') in
  let entries = List.mapi (fun i k -> (k, value i)) keys in
  (* an internal-key target is a whole internal key *)
  let targets =
    List.filter (fun t -> (not internal) || String.length t >= 8) targets
  in
  return { internal; interval; entries; targets }

let print_block_case c =
  Printf.sprintf "internal=%b interval=%d entries=[%s] targets=[%s]" c.internal
    c.interval
    (String.concat "; " (List.map (fun (k, _) -> String.escaped k) c.entries))
    (String.concat "; " (List.map String.escaped c.targets))

let shared_iter = Block.Iter.make (build_block [])

let prop_block_iter_matches_oracle =
  QCheck.Test.make ~name:"block iterator = sorted-list oracle" ~count:400
    (QCheck.make ~print:print_block_case gen_block_case)
    (fun c ->
      let cmp =
        if c.internal then Clsm_lsm.Internal_key.comparator else Comparator.bytewise
      in
      let b = Block_builder.create ~restart_interval:c.interval () in
      List.iter (fun (k, v) -> Block_builder.add b ~key:k ~value:v) c.entries;
      let block = Block.parse cmp (Block_builder.finish b) in
      let it = shared_iter in
      Block.Iter.reset it block;
      (* The position and every [next] after it yield [expected]. *)
      let rec yields = function
        | [] -> not (Block.Iter.valid it)
        | (k, v) :: rest ->
            Block.Iter.valid it
            && Block.Iter.key it = k
            && Block.Iter.key it == Block.Iter.key it
            && Block.Iter.value it = v
            && Block.Iter.read_value it (fun s ~pos ~len -> String.sub s pos len) = v
            && (Block.Iter.next it; yields rest)
      in
      let rec drop_while p = function
        | x :: rest when p x -> drop_while p rest
        | l -> l
      in
      let from_last_le target =
        (* the suffix starting at the last entry <= target, [] if none *)
        let rec go acc = function
          | [] -> acc
          | ((k, _) :: rest) as l ->
              if cmp.Comparator.compare k target <= 0 then go l rest else acc
        in
        go [] c.entries
      in
      Block.Iter.seek_to_first it;
      yields c.entries
      && List.for_all
           (fun target ->
             Block.Iter.seek it target;
             yields
               (drop_while
                  (fun (k, _) -> cmp.Comparator.compare k target < 0)
                  c.entries)
             && (Block.Iter.seek_le it target; yields (from_last_le target)))
           c.targets)

(* ---------- Block: structure-aware fuzz ---------- *)

(* A valid block, cut at restart interval 1, 2 or 16, with one decoded
   field changed: an entry's varint re-encoded with another value (a
   length) or replaced by malformed bytes (a varint), a restart offset,
   the restart count, or bytes spliced in. The trailer is left as the
   edit leaves it, as a block whose CRC was resealed would be. *)
type mutation =
  | Field of int * int * int (* entry, field (shared, non_shared, value_len), value *)
  | Varint_bytes of int * int * string (* entry, field, bytes *)
  | Restart of int * int (* restart, offset *)
  | Num_restarts of int
  | Splice of int * int * string (* position, bytes removed, bytes inserted *)

type fuzz_case = {
  f_interval : int;
  f_entries : (string * string) list;
  mutation : mutation;
  f_targets : string list;
}

let print_mutation = function
  | Field (e, f, v) -> Printf.sprintf "Field (entry %d, field %d, %d)" e f v
  | Varint_bytes (e, f, b) ->
      Printf.sprintf "Varint_bytes (entry %d, field %d, %S)" e f b
  | Restart (i, off) -> Printf.sprintf "Restart (%d, %d)" i off
  | Num_restarts n -> Printf.sprintf "Num_restarts %d" n
  | Splice (p, d, b) -> Printf.sprintf "Splice (at %d, remove %d, insert %S)" p d b

let print_fuzz_case c =
  Printf.sprintf "interval=%d entries=[%s] %s targets=[%s]" c.f_interval
    (String.concat "; "
       (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) c.f_entries))
    (print_mutation c.mutation)
    (String.concat "; " (List.map String.escaped c.f_targets))

let gen_fuzz_case =
  let open QCheck.Gen in
  let prefix = oneofl [ ""; "ab"; "abcabc" ] in
  let key = map2 ( ^ ) prefix (string_size ~gen:(char_range 'a' 'c') (0 -- 4)) in
  let some_bytes n = string_size ~gen:char (0 -- n) in
  oneofl [ 1; 2; 16 ] >>= fun f_interval ->
  list_size (0 -- 40) key >>= fun keys ->
  let keys = List.sort_uniq String.compare keys in
  list_repeat (List.length keys) (some_bytes 10) >>= fun values ->
  let f_entries = List.combine keys values in
  let value =
    oneof
      [
        0 -- 300;
        oneofl [ 0; 1; 2; 127; 128; 1 lsl 20; 1 lsl 40; max_int ];
      ]
  in
  let malformed_varint =
    oneofl
      [
        "\x80";
        "\xff\xff";
        String.make 9 '\xff' ^ "\x01";
        String.make 10 '\x80';
        String.make 8 '\xff' ^ "\x7f";
        "\x80\x00";
      ]
  in
  let offset =
    oneof [ 0 -- 600; oneofl [ 0; 1; 4095; 0xffffffff ] ]
  in
  let mutation =
    oneof
      [
        map3 (fun e f v -> Field (e, f, v)) nat (0 -- 2) value;
        map3 (fun e f b -> Varint_bytes (e, f, b)) nat (0 -- 2) malformed_varint;
        map2 (fun i off -> Restart (i, off)) nat offset;
        map (fun n -> Num_restarts n) (oneof [ 0 -- 50; oneofl [ 0xffffffff; 1 lsl 30 ] ]);
        map3 (fun p d b -> Splice (p, d, b)) nat (0 -- 4) (some_bytes 4);
      ]
  in
  mutation >>= fun mutation ->
  let near k =
    oneofl [ k; k ^ "\x00"; String.sub k 0 (Int.max 0 (String.length k - 1)) ]
  in
  let present = if keys = [] then return "" else oneofl keys >>= near in
  list_size (1 -- 8) (oneof [ present; key; oneofl [ ""; "\xff" ] ]) >>= fun f_targets ->
  return { f_interval; f_entries; mutation; f_targets }

(* The block format read by a decoder written from it alone. *)
type block_model = {
  refused : bool; (* the trailer or restart array is malformed *)
  limit : int; (* end of the entry region *)
  decoded : (int * int * string * string) list;
      (* each entry that decodes, in order: offset, shared, key, value *)
  decodes : bool; (* every entry decodes *)
  restarts_whole : bool; (* each restart is an entry that stores its key whole *)
  ordered : bool; (* keys strictly increase *)
}

let model_block data =
  let n = String.length data in
  let refused = { refused = true; limit = 0; decoded = []; decodes = false;
                  restarts_whole = false; ordered = false } in
  let get32 pos = Clsm_util.Binary.get_fixed32 data ~pos in
  if n < 4 then refused
  else
    let nr = get32 (n - 4) in
    if nr < 1 || 4 + (4 * nr) > n then refused
    else
      let limit = n - 4 - (4 * nr) in
      let restarts = List.init nr (fun i -> get32 (limit + (4 * i))) in
      let rec well_placed prev = function
        | [] -> true
        | r :: rest -> r > prev && r < limit && well_placed r rest
      in
      if List.hd restarts <> 0 || not (well_placed 0 (List.tl restarts)) then refused
      else
        let region = String.sub data 0 limit in
        let rec decode acc prev pos =
          if pos >= limit then (List.rev acc, true)
          else
            match
              let shared, p = Clsm_util.Varint.read region ~pos in
              let non_shared, p = Clsm_util.Varint.read region ~pos:p in
              let value_len, p = Clsm_util.Varint.read region ~pos:p in
              if non_shared > limit - p || value_len > limit - p - non_shared
                 || shared > String.length prev
              then None
              else
                Some
                  ( shared,
                    String.sub prev 0 shared ^ String.sub region p non_shared,
                    String.sub region (p + non_shared) value_len,
                    p + non_shared + value_len )
            with
            | exception Clsm_util.Varint.Corrupt _ -> (List.rev acc, false)
            | None -> (List.rev acc, false)
            | Some (shared, key, value, next) ->
                decode ((pos, shared, key, value) :: acc) key next
        in
        let decoded, decodes = decode [] "" 0 in
        let restarts_whole =
          limit = 0
          || List.for_all
               (fun r -> List.exists (fun (off, shared, _, _) -> off = r && shared = 0) decoded)
               restarts
        in
        let rec ordered = function
          | (_, _, a, _) :: ((_, _, b, _) :: _ as rest) -> a < b && ordered rest
          | [ _ ] | [] -> true
        in
        { refused = false; limit; decoded; decodes; restarts_whole;
          ordered = ordered decoded }

exception Read_outside_entries of string

(* [bytewise], refusing to compare a key that does not lie inside the
   entry region of the block under test: every key a search compares
   in place must have passed the block's extent checks. *)
let fuzz_data = ref "" and fuzz_limit = ref 0

let checked_bytewise =
  Comparator.make ~name:"bytewise" (fun s pos len target ->
      let bound = if s == !fuzz_data then !fuzz_limit else String.length s in
      if pos < 0 || len < 0 || len > bound - pos then
        raise
          (Read_outside_entries
             (Printf.sprintf "compare at %d, %d bytes, bound %d" pos len bound));
      Comparator.bytewise_compare_sub s pos len target)

let mutate data entry_offsets mutation =
  let n = String.length data in
  let limit = n - 4 - (4 * Clsm_util.Binary.get_fixed32 data ~pos:(n - 4)) in
  let splice pos del ins =
    String.sub data 0 pos ^ ins ^ String.sub data (pos + del) (n - pos - del)
  in
  let put32 pos v =
    let b = Bytes.of_string data in
    Clsm_util.Binary.put_fixed32 b ~pos (v land 0xffffffff);
    Bytes.to_string b
  in
  (* Bytes [a, b) of field [f] of entry [e]. *)
  let field e f =
    let start = entry_offsets.(e mod Array.length entry_offsets) in
    let rec go pos i =
      let _, next = Clsm_util.Varint.read data ~pos in
      if i = f then (pos, next) else go next (i + 1)
    in
    go start 0
  in
  let encode v =
    let b = Buffer.create 10 in
    Clsm_util.Varint.write b v;
    Buffer.contents b
  in
  match mutation with
  | (Field _ | Varint_bytes _) when entry_offsets = [||] -> data
  | Field (e, f, v) ->
      let a, b = field e f in
      splice a (b - a) (encode v)
  | Varint_bytes (e, f, bytes) ->
      let a, b = field e f in
      splice a (b - a) bytes
  | Restart (i, off) ->
      let nr = (n - 4 - limit) / 4 in
      put32 (limit + (4 * (i mod nr))) off
  | Num_restarts v -> put32 (n - 4) v
  | Splice (p, d, ins) ->
      let p = p mod (n + 1) in
      splice p (Int.min d (n - p)) ins

let fuzz_iter = Block.Iter.make (build_block [])

(* Each call gives the model's answer or raises [Block.Corrupt]:
   - [parse] refuses exactly the blocks whose restart array is
     malformed;
   - [fold] reads every entry, so it returns the model's entries or
     raises when one does not decode;
   - [check_entries] raises exactly when an entry does not decode or a
     restart is not an entry stored whole;
   - [seek], [seek_le] and [next] answer as a sorted list would on a
     block that passes both and is ordered, never raise on one that
     passes both, and otherwise return or raise.
   Any other exception, or a compare outside the entry region, fails. *)
let prop_block_fuzz =
  QCheck.Test.make ~name:"mutated blocks give the model's answer or Corrupt"
    ~count:1000
    (QCheck.make ~print:print_fuzz_case gen_fuzz_case)
    (fun c ->
      let b = Block_builder.create ~restart_interval:c.f_interval () in
      List.iter (fun (k, v) -> Block_builder.add b ~key:k ~value:v) c.f_entries;
      let valid = Block_builder.finish b in
      let offsets =
        Array.of_list (List.map (fun (off, _, _, _) -> off) (model_block valid).decoded)
      in
      let data = mutate valid offsets c.mutation in
      let m = model_block data in
      fuzz_data := data;
      fuzz_limit := m.limit;
      let fail fmt = QCheck.Test.fail_reportf ("%s on %S: " ^^ fmt) (print_mutation c.mutation) data in
      let corrupt f = match f () with _ -> false | exception Block.Corrupt _ -> true in
      match Block.parse checked_bytewise data with
      | exception Block.Corrupt msg ->
          if not m.refused then fail "parse refused it: %s" msg;
          true
      | block ->
          if m.refused then fail "parse accepted it";
          let entries = List.map (fun (_, _, k, v) -> (k, v)) m.decoded in
          (match Block.Iter.fold (fun k v acc -> (k, v) :: acc) block [] with
          | exception Block.Corrupt msg ->
              if m.decodes then fail "fold raised %s" msg
          | got ->
              if not m.decodes then fail "fold read an entry that does not decode";
              if List.rev got <> entries then fail "fold differs from the model");
          let sound = m.decodes && m.restarts_whole in
          if corrupt (fun () -> Block.check_entries block) = sound then
            fail "check_entries %s" (if sound then "raised" else "passed");
          let it = fuzz_iter in
          Block.Iter.reset it block;
          let rec yields = function
            | [] -> not (Block.Iter.valid it)
            | (k, v) :: rest ->
                Block.Iter.valid it
                && Block.Iter.key it = k
                && Block.Iter.value it = v
                && (Block.Iter.next it; yields rest)
          in
          let rec drop_while p = function
            | x :: rest when p x -> drop_while p rest
            | l -> l
          in
          let rec last_le t acc = function
            | [] -> acc
            | ((k, _) :: rest) as l -> if k <= t then last_le t l rest else acc
          in
          List.iter
            (fun t ->
              let checks =
                [
                  ("seek", (fun () -> Block.Iter.seek it t),
                    drop_while (fun (k, _) -> k < t) entries);
                  ("seek_le", (fun () -> Block.Iter.seek_le it t), last_le t [] entries);
                ]
              in
              List.iter
                (fun (name, seek, expected) ->
                  if sound && m.ordered then begin
                    seek ();
                    if not (yields expected) then fail "%s %S differs from the model" name t
                  end
                  else
                    match
                      seek ();
                      for _ = 1 to 3 do
                        Block.Iter.next it
                      done
                    with
                    | () -> ()
                    | exception Block.Corrupt msg ->
                        if sound then fail "%s %S raised %s" name t msg)
                checks)
            c.f_targets;
          true)

(* ---------- Cache ---------- *)

let cache_lru_eviction () =
  let c = Cache.create ~shards:1 ~capacity:3 ~weight:(fun _ -> 1) () in
  Cache.insert c 1 1;
  Cache.insert c 2 2;
  Cache.insert c 3 3;
  ignore (Cache.find c 1);
  (* 1 is now MRU *)
  Cache.insert c 4 4;
  (* evicts 2 (LRU) *)
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c 1);
  Alcotest.(check (option int)) "b evicted" None (Cache.find c 2);
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c 3);
  Alcotest.(check (option int)) "d kept" (Some 4) (Cache.find c 4);
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions

let cache_weighted () =
  let c = Cache.create ~shards:1 ~capacity:10 ~weight:String.length () in
  Cache.insert c 1 "aaaa";
  Cache.insert c 2 "bbbb";
  Cache.insert c 3 "cccccc";
  (* 6 bytes; 4+4+6 > 10 evicts until fit *)
  Alcotest.(check bool) "total weight within capacity" true
    ((Cache.stats c).Cache.weight <= 10);
  Cache.insert c 4 (String.make 100 'x');
  Alcotest.(check (option string)) "oversized not cached" None
    (Cache.find c 4)

let cache_find_or_add () =
  let c = Cache.create ~capacity:100 ~weight:(fun _ -> 1) () in
  let calls = ref 0 in
  let load () = incr calls; 42 in
  Alcotest.(check int) "computed" 42 (Cache.find_or_add c 1 load);
  Alcotest.(check int) "cached" 42 (Cache.find_or_add c 1 load);
  Alcotest.(check int) "loaded once" 1 !calls;
  Cache.remove c 1;
  Alcotest.(check int) "reloaded" 42 (Cache.find_or_add c 1 load);
  Alcotest.(check int) "loaded twice" 2 !calls

let cache_concurrent () =
  let c = Cache.create ~shards:4 ~capacity:64 ~weight:(fun _ -> 1) () in
  let worker seed () =
    for i = 0 to 5_000 do
      let k = (i * seed) mod 128 in
      match Cache.find c k with
      | Some v -> assert (v = k)
      | None -> Cache.insert c k k
    done;
    true
  in
  let results =
    List.map Domain.spawn [ worker 3; worker 5; worker 7 ]
    |> List.map Domain.join
  in
  List.iter (fun ok -> Alcotest.(check bool) "worker ok" true ok) results;
  Alcotest.(check bool) "capacity respected" true
    ((Cache.stats c).Cache.weight <= 64)

(* ---------- Table ---------- *)

let build_table ?(block_size = 256) ?filter_key_of name pairs =
  let path = tmp_path name in
  let b =
    Table_builder.create ~block_size ?filter_key_of ~cmp:Comparator.bytewise
      ~path ()
  in
  List.iter (fun (k, v) -> Table_builder.add b ~key:k ~value:v) pairs;
  let props = Table_builder.finish b in
  (path, props)

let table_roundtrip () =
  let pairs = sorted_pairs 1000 in
  let path, props = build_table "t_roundtrip" pairs in
  Alcotest.(check int) "props entries" 1000 props.Table_format.num_entries;
  Alcotest.(check string) "smallest" "key000000" props.Table_format.smallest;
  Alcotest.(check string) "largest" "key000999" props.Table_format.largest;
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  Alcotest.(check int) "reader sees props" 1000
    (Table.properties t).Table_format.num_entries;
  Alcotest.(check (list (pair string string))) "contents" pairs (Table.to_list t);
  Table.close t

let table_seek_and_bloom () =
  let pairs = sorted_pairs 500 in
  let path, _ = build_table "t_seek" pairs in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  Alcotest.(check (option (pair string string)))
    "seek exact"
    (Some ("key000123", "val123"))
    (Table.find_first_ge t "key000123");
  Alcotest.(check (option (pair string string)))
    "seek between"
    (Some ("key000124", "val124"))
    (Table.find_first_ge t "key000123x");
  Alcotest.(check (option (pair string string)))
    "seek past end" None
    (Table.find_first_ge t "zzz");
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "bloom hit" true (Table.may_contain t k))
    pairs;
  let false_positives = ref 0 in
  for i = 0 to 999 do
    if Table.may_contain t (Printf.sprintf "nokey-%d" i) then
      incr false_positives
  done;
  Alcotest.(check bool) "bloom filters most absentees" true
    (!false_positives < 50);
  Table.close t

let table_with_cache () =
  let pairs = sorted_pairs 2000 in
  let path, _ = build_table "t_cache" pairs in
  let cache = Cache.create ~capacity:(1 lsl 20) ~weight:Block.size_bytes () in
  let t = Table.open_file ~cache ~cmp:Comparator.bytewise path in
  (* Two passes: the second should be served from cache. *)
  ignore (Table.to_list t);
  let s1 = Cache.stats cache in
  ignore (Table.to_list t);
  let s2 = Cache.stats cache in
  Alcotest.(check bool) "second pass hits cache" true
    (s2.Cache.hits > s1.Cache.hits);
  Alcotest.(check int) "no extra misses" s1.Cache.misses s2.Cache.misses;
  Table.close t

let table_corruption_detected () =
  let pairs = sorted_pairs 100 in
  let path, _ = build_table "t_corrupt" pairs in
  (* Flip a byte inside the first data block. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  (match Table.to_list t with
  | exception Table.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt");
  Table.close t

(* Recompute the CRC trailer of the block of [size] payload bytes at
   [offset] in a table image, so that only decoding can tell an edit. *)
let reseal raw ~offset ~size =
  let crc =
    Clsm_util.Crc32c.sub (Bytes.unsafe_to_string raw) ~pos:offset ~len:(size + 1)
  in
  Clsm_util.Binary.put_fixed32 raw ~pos:(offset + size + 1)
    (Clsm_util.Crc32c.mask crc)

let read_image path =
  Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

let write_image path raw =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc raw)

let footer_of raw =
  let n = Bytes.length raw in
  Table_format.decode_footer
    (Bytes.sub_string raw (n - Table_format.footer_length) Table_format.footer_length)

(* A block whose checksum holds but whose first entry does not decode:
   the value-length varint of the first (restart) entry gets its
   continuation bit, so it runs on into the key and claims more bytes
   than the block has. The trailer is recomputed, so only decoding can
   tell. Returns the path and the first key. *)
let malformed_first_block name =
  let pairs = sorted_pairs 100 in
  let path, props = build_table name pairs in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  let size = snd (List.hd (Table.index_anchors t)) in
  Table.close t;
  let raw = read_image path in
  (* [shared = 0; non_shared; value_len] as one-byte varints *)
  Alcotest.(check bool) "restart entry header" true
    (Bytes.get raw 0 = '\000' && Char.code (Bytes.get raw 2) < 0x80);
  Bytes.set raw 2 (Char.chr (Char.code (Bytes.get raw 2) lor 0x80));
  reseal raw ~offset:0 ~size;
  write_image path raw;
  (path, props.Table_format.smallest)

(* Every read path turns a block decode failure into [Table.Corrupt],
   which is what the LSM layer queues a corruption verdict on. *)
let table_malformed_block_is_corrupt () =
  let path, first = malformed_first_block "t_malformed" in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  let expect_corrupt what f =
    match f () with
    | exception Table.Corrupt m ->
        Alcotest.(check bool) (what ^ " names the block") true
          (String.starts_with ~prefix:"block@0:" m)
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s read a malformed block" what
  in
  expect_corrupt "find_last_le" (fun () -> ignore (Table.find_last_le t first));
  expect_corrupt "find_first_ge" (fun () -> ignore (Table.find_first_ge t first));
  expect_corrupt "to_list" (fun () -> ignore (Table.to_list t));
  (match Table.verify t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "verify passed a malformed block");
  Table.close t

(* Block 1 of a table of [sorted_pairs 100], its payload edited in
   place by [edit raw ~offset ~size] and its checksum resealed, so only
   decoding can tell. Returns the path, the block's offset and its first
   key. *)
let table_with_edited_block name edit =
  let path, _ = build_table name (sorted_pairs 100) in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  let anchors = Table.index_anchors t in
  Table.close t;
  let size0 = snd (List.nth anchors 0) and size = snd (List.nth anchors 1) in
  let offset = size0 + Table_format.block_trailer_length in
  let raw = read_image path in
  edit raw ~offset ~size;
  reseal raw ~offset ~size;
  write_image path raw;
  (path, offset, Bytes.sub_string raw (offset + 3) 9)

(* Every lookup into the edited block raises naming it (twice: nothing
   is kept from the first failure), and [Table.verify] reports it. *)
let expect_block_corrupt path offset probe =
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  let names_block m = String.starts_with ~prefix:(Printf.sprintf "block@%d:" offset) m in
  for attempt = 1 to 2 do
    match Table.find_last_le t probe with
    | exception Table.Corrupt m ->
        Alcotest.(check bool)
          (Printf.sprintf "attempt %d names block@%d: %s" attempt offset m)
          true (names_block m)
    | _ -> Alcotest.failf "attempt %d read a malformed block" attempt
  done;
  (match Table.verify t with
  | Error m -> Alcotest.(check bool) ("verify names the block: " ^ m) true (names_block m)
  | Ok _ -> Alcotest.fail "verify passed a malformed block");
  Table.close t

(* A malformed entry in the middle of a later block: entry 1, a
   restart, claims a shared prefix. The restart search for the block's
   first key compares entry 1, so it meets it. *)
let table_malformed_later_block_is_corrupt () =
  let path, offset, first_key =
    table_with_edited_block "t_malformed_later" (fun raw ~offset ~size:_ ->
        (* Entry 0 is [0; 9; value_len] and a 9-byte key; entry 1
           follows its value and stores its key whole. *)
        let value_len = Char.code (Bytes.get raw (offset + 2)) in
        let entry1 = offset + 3 + 9 + value_len in
        Alcotest.(check bool) "entry 1 is stored whole" true
          (Bytes.get raw entry1 = '\000' && Bytes.get raw (entry1 + 1) = '\009');
        Bytes.set raw entry1 '\x7f')
  in
  expect_block_corrupt path offset first_key

(* Restart offsets out of order in a later block: [Block.parse] refuses
   it on the lookup's load. *)
let table_restarts_out_of_order_refused () =
  let path, offset, first_key =
    table_with_edited_block "t_restart_order" (fun raw ~offset ~size ->
        let num_restarts =
          Clsm_util.Binary.get_fixed32 (Bytes.unsafe_to_string raw)
            ~pos:(offset + size - 4)
        in
        let restart i = offset + size - 4 - (4 * num_restarts) + (4 * i) in
        Alcotest.(check bool) "several restarts" true (num_restarts > 3);
        let r1 = Bytes.sub raw (restart 1) 4 in
        Bytes.blit raw (restart 2) raw (restart 1) 4;
        Bytes.blit r1 0 raw (restart 2) 4)
  in
  expect_block_corrupt path offset first_key

(* An index block whose CRC holds but whose first entry overruns the
   block is refused at open, naming the index block. *)
let table_malformed_index_refused () =
  let path, _ = build_table "t_malformed_index" (sorted_pairs 100) in
  let raw = read_image path in
  let { Block_handle.offset; size } = (footer_of raw).Table_format.index_handle in
  Bytes.set raw (offset + 2)
    (Char.chr (Char.code (Bytes.get raw (offset + 2)) lor 0x80));
  reseal raw ~offset ~size;
  write_image path raw;
  match Table.open_file ~cmp:Comparator.bytewise path with
  | exception Table.Corrupt m ->
      Alcotest.(check bool) ("names the index block: " ^ m) true
        (String.starts_with ~prefix:"index block" m)
  | t ->
      Table.close t;
      Alcotest.fail "opened a table with a malformed index"

(* Every failed open closes the file it opened: a file too short for a
   footer, and a table whose index block fails its checksum. *)
let table_failed_open_closes_file () =
  let module Env = Clsm_env.Env in
  let opened = Atomic.make 0 and closed = Atomic.make 0 in
  let env =
    {
      Env.unix with
      open_random =
        (fun path ->
          let f = Env.unix.open_random path in
          Atomic.incr opened;
          {
            f with
            rf_close =
              (fun () ->
                Atomic.incr closed;
                f.rf_close ());
          });
    }
  in
  let short = tmp_path "t_leak_short" in
  Out_channel.with_open_bin short (fun oc -> output_string oc "short");
  let rotten, _ = build_table "t_leak_index" (sorted_pairs 100) in
  let raw = read_image rotten in
  let { Block_handle.offset; _ } = (footer_of raw).Table_format.index_handle in
  Bytes.set raw (offset + 3)
    (Char.chr (Char.code (Bytes.get raw (offset + 3)) lxor 0xff));
  write_image rotten raw;
  List.iter
    (fun path ->
      match Table.open_file ~env ~cmp:Comparator.bytewise path with
      | exception Table.Corrupt _ -> ()
      | t ->
          Table.close t;
          Alcotest.failf "%s opened" path)
    [ short; rotten ];
  Alcotest.(check int) "both files opened" 2 (Atomic.get opened);
  Alcotest.(check int) "opens = closes" (Atomic.get opened) (Atomic.get closed)

let table_truncated_rejected () =
  let path = tmp_path "t_trunc" in
  let oc = open_out_bin path in
  output_string oc "short";
  close_out oc;
  match Table.open_file ~cmp:Comparator.bytewise path with
  | exception Table.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let table_filter_key_extractor () =
  (* Simulates internal keys "user|ts": the bloom filter indexes user keys. *)
  let filter_key_of k = List.hd (String.split_on_char '|' k) in
  let pairs =
    [ ("alice|001", "v1"); ("alice|002", "v2"); ("bob|001", "v3") ]
  in
  let path, _ = build_table ~filter_key_of "t_fkey" pairs in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  Alcotest.(check bool) "user key member" true (Table.may_contain t "alice");
  Alcotest.(check bool) "user key member 2" true (Table.may_contain t "bob");
  Table.close t

let table_single_and_empty_block_boundaries () =
  (* Tiny block size forces one entry per block: exercises the two-level
     iterator's block-skipping logic. *)
  let pairs = sorted_pairs 60 in
  let path, _ = build_table ~block_size:64 "t_tiny_blocks" pairs in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  Alcotest.(check (list (pair string string))) "contents" pairs (Table.to_list t);
  let it = Table.Iter.make t in
  Table.Iter.seek it "key000049x";
  Alcotest.(check bool) "valid after seek across blocks" true
    (Table.Iter.valid it);
  Alcotest.(check string) "lands on next block" "key000050" (Table.Iter.key it);
  Table.close t

let table_find_last_le () =
  (* Small blocks so the probe exercises the cross-block fallback paths. *)
  let pairs = sorted_pairs 200 in
  let path, _ = build_table ~block_size:128 "t_seek_le" pairs in
  let t = Table.open_file ~cmp:Comparator.bytewise path in
  let check probe expected =
    Alcotest.(check (option string)) ("find_last_le " ^ probe) expected
      (Option.map fst (Table.find_last_le t probe))
  in
  check "key000000" (Some "key000000");
  check "a" None;
  check "key000100" (Some "key000100");
  check "key000100x" (Some "key000100");
  check "zzz" (Some "key000199");
  (* Every key finds itself; every key+suffix finds the key. *)
  List.iter
    (fun (k, _) ->
      Alcotest.(check (option string)) "exact" (Some k)
        (Option.map fst (Table.find_last_le t k));
      Alcotest.(check (option string)) "with suffix" (Some k)
        (Option.map fst (Table.find_last_le t (k ^ "\x01"))))
    pairs;
  (* A lookup made while the domain's iterators are in use (here from
     inside a reader) takes its own, and leaves the outer entry intact. *)
  Alcotest.(check (option (pair string string))) "nested lookup"
    (Some ("key000150", "key000042"))
    (Table.find_last_le_with t "key000150" (fun it ->
         let inner = Table.find_last_le t "key000042x" in
         Some (Block.Iter.key it, Option.get (Option.map fst inner))));
  Table.close t

let prop_table_find_last_le =
  QCheck.Test.make ~name:"table find_last_le = last <= probe" ~count:30
    QCheck.(
      pair
        (list (string_of_size Gen.(1 -- 8)))
        (string_of_size Gen.(1 -- 8)))
    (fun (keys, probe) ->
      let keys = List.sort_uniq String.compare keys in
      QCheck.assume (keys <> []);
      let path, _ =
        build_table ~block_size:96 "t_prop_le" (List.map (fun k -> (k, k)) keys)
      in
      let t = Table.open_file ~cmp:Comparator.bytewise path in
      let got = Option.map fst (Table.find_last_le t probe) in
      Table.close t;
      let expected =
        List.fold_left (fun acc k -> if k <= probe then Some k else acc) None keys
      in
      got = expected)

(* ---------- Table: the decoded index and the in-block search ---------- *)

module Ik = Clsm_lsm.Internal_key

(* A table of internal keys: each user key holds a run of versions at
   timestamps 10, 20, ..., so small blocks cut runs in two and a probe
   at an odd timestamp falls between two versions. *)
let build_ik_table ~block_size name entries =
  let path = tmp_path name in
  let b = Table_builder.create ~block_size ~cmp:Ik.comparator ~path () in
  List.iter (fun (k, v) -> Table_builder.add b ~key:k ~value:v) entries;
  ignore (Table_builder.finish b);
  path

let version_entries runs =
  List.concat_map
    (fun (user_key, versions) ->
      List.init versions (fun j ->
          let ts = 10 * (j + 1) in
          (Ik.make user_key ts, Printf.sprintf "%s@%d" user_key ts)))
    (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) runs)

(* The last entry <= probe and the first entry >= probe of a sorted
   list. *)
let last_le entries probe =
  List.fold_left
    (fun acc ((k, _) as e) -> if Ik.compare_encoded k probe <= 0 then Some e else acc)
    None entries

let first_ge entries probe =
  List.find_opt (fun (k, _) -> Ik.compare_encoded k probe >= 0) entries

type search_case = {
  block_size : int;
  runs : (string * int) list; (* user key, number of versions *)
  random_probes : string list;
}

let gen_search_case =
  let open QCheck.Gen in
  let user_key = string_size ~gen:(char_range 'b' 'e') (1 -- 3) in
  oneofl [ 64; 96; 160 ] >>= fun block_size ->
  list_size (10 -- 30) (pair user_key (1 -- 6)) >>= fun runs ->
  let ts = oneof [ 0 -- 70; return Ik.max_ts ] in
  list_size (0 -- 8) (map2 Ik.make (string_size ~gen:(char_range 'a' 'f') (0 -- 3)) ts)
  >>= fun random_probes -> return { block_size; runs; random_probes }

let print_search_case c =
  Printf.sprintf "block_size=%d runs=[%s] probes=[%s]" c.block_size
    (String.concat "; " (List.map (fun (k, n) -> Printf.sprintf "%s×%d" k n) c.runs))
    (String.concat "; " (List.map String.escaped c.random_probes))

(* [find_last_le] and [Iter.seek] against the table's own [fold], at
   probes before the first key, after the last, onto every separator,
   just past every separator (between blocks), and at random. *)
let prop_table_search_matches_fold =
  QCheck.Test.make ~name:"table find_last_le / seek = fold, across blocks"
    ~count:60
    (QCheck.make ~print:print_search_case gen_search_case)
    (fun c ->
      (* A run of 12 versions outgrows every block size drawn, so at
         least one run straddles a block boundary. *)
      let entries = version_entries (("cz", 12) :: c.runs) in
      let path =
        build_ik_table ~block_size:c.block_size "t_prop_search" entries
      in
      let t = Table.open_file ~cmp:Ik.comparator path in
      let folded = Table.to_list t in
      let separators = List.map fst (Table.index_anchors t) in
      let past k =
        let u = Ik.user_key_of k and ts = Ik.ts_of k in
        Ik.make u (if ts = Ik.max_ts then ts else ts + 1)
      in
      let probes =
        (Ik.make "" 0 :: Ik.probe "zz" :: separators)
        @ List.map past separators @ c.random_probes
      in
      let it = Table.Iter.make t in
      let ok =
        folded = entries
        && List.length separators > 1
        && List.for_all
             (fun p ->
               Table.find_last_le t p = last_le folded p
               &&
               (Table.Iter.seek it p;
                let got =
                  if Table.Iter.valid it then
                    Some (Table.Iter.key it, Table.Iter.value it)
                  else None
                in
                got = first_ge folded p))
             probes
      in
      Table.close t;
      ok)

(* ---------- Key order: the word-at-a-time compare ---------- *)

(* Two internal keys whose user keys share a prefix of 0 to 41 bytes
   (every word boundary and its neighbours drawn often), are at most 48
   bytes long and draw bytes from the whole 0x00-0xff range; sometimes
   one user key is a proper prefix of the other, and sometimes the two
   are equal and only the timestamps differ. *)
let gen_key_pair =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (return n) in
  let prefix_len =
    oneof
      [
        oneofl (List.concat_map (fun w -> [ w - 1; w; w + 1 ]) [ 8; 16; 24; 32; 40 ]);
        0 -- 41;
      ]
  in
  let ts = oneof [ 0 -- 3; map (fun x -> x land Ik.max_ts) int; return Ik.max_ts ] in
  prefix_len >>= fun p ->
  bytes p >>= fun prefix ->
  (0 -- (48 - p)) >>= fun la ->
  (0 -- (48 - p)) >>= fun lb ->
  bytes la >>= fun sa ->
  bytes lb >>= fun sb ->
  oneofl [ `Distinct; `Proper_prefix; `Equal ] >>= fun shape ->
  let ua = prefix ^ sa in
  let ub =
    match shape with
    | `Distinct -> prefix ^ sb
    | `Proper_prefix -> String.sub ua 0 (String.length ua * lb / 48)
    | `Equal -> ua
  in
  pair ts ts >>= fun (ta, tb) -> return ((ua, ta), (ub, tb))

let print_key_pair ((ua, ta), (ub, tb)) =
  Printf.sprintf "(%S, %d) (%S, %d)" ua ta ub tb

let sign c = Int.compare c 0

(* Both comparators, whole and in place at an unaligned offset, and the
   user-key helpers, against [String.compare] on user keys then
   [Int.compare] on timestamps. *)
let prop_comparators_match_reference =
  QCheck.Test.make ~name:"comparators = String.compare, then ts" ~count:2000
    (QCheck.make ~print:print_key_pair gen_key_pair)
    (fun (((ua, ta), (ub, tb)) as pair) ->
      let a = Ik.make ua ta and b = Ik.make ub tb in
      let user = sign (String.compare ua ub) in
      let full = if user <> 0 then user else sign (Int.compare ta tb) in
      let pad = "\xff\x00\x80" in
      let padded k = pad ^ k ^ pad in
      let at = String.length pad in
      let check name got expected =
        if sign got <> expected then
          QCheck.Test.fail_reportf "%s: %s gives %d, expected %d" name
            (print_key_pair pair) got expected
      in
      check "Ik.compare_encoded" (Ik.compare_encoded a b) full;
      check "Ik.compare_encoded (swapped)" (Ik.compare_encoded b a) (-full);
      check "Ik.comparator.compare" (Ik.comparator.Comparator.compare a b) full;
      check "Ik.comparator.compare_sub"
        (Ik.comparator.Comparator.compare_sub (padded a) at (String.length a) b)
        full;
      check "bytewise.compare" (Comparator.bytewise.Comparator.compare ua ub) user;
      check "bytewise_compare_sub"
        (Comparator.bytewise_compare_sub (padded ua) at (String.length ua) ub)
        user;
      check "bytewise_compare_range"
        (Comparator.bytewise_compare_range (padded ua) at (String.length ua)
           ("\x01" ^ ub) 1 (String.length ub))
        user;
      check "Ik.compare_user_key" (Ik.compare_user_key a ub) user;
      let ts = Ik.ts_if_user_key (padded a) at (String.length a) ub in
      if ts <> if user = 0 then ta else -1 then
        QCheck.Test.fail_reportf "ts_if_user_key: %s gives %d" (print_key_pair pair)
          ts;
      true)

(* ---------- Table: separators past a block's last user key ---------- *)

(* Production-shaped internal keys: 40 B user keys that share a long
   zero prefix, 1 KB values, so a 4 KB block holds about four entries.
   Every fifth user key has three versions, which some block boundary
   cuts; the others have one. *)
let long_key_entries () =
  let user_key i = Printf.sprintf "%040d" i in
  List.concat_map
    (fun i ->
      let versions = if i mod 5 = 0 then 3 else 1 in
      List.init versions (fun j ->
          let ts = 10 * (j + 1) in
          (Ik.make (user_key i) ts, Printf.sprintf "%d@%d" i ts ^ String.make 1000 'v')))
    (List.init 120 Fun.id)

(* A user key's newest version, looked up at [max_ts] through the block
   cache, costs one cache probe: the block holding the key's last
   version is the first whose separator is >= the probe, so no lookup
   falls back to the block before. That includes the table's last key,
   whose separator is its user key at [max_ts]. *)
let table_lookup_enters_one_block () =
  let entries = long_key_entries () in
  let path =
    build_ik_table ~block_size:4096 "t_one_block" entries
  in
  let cache = Cache.create ~capacity:(64 lsl 20) ~weight:Block.size_bytes () in
  let t = Table.open_file ~cache ~cmp:Ik.comparator path in
  Alcotest.(check bool) "many blocks" true (List.length (Table.index_anchors t) > 20);
  let probes = List.sort_uniq compare (List.map (fun (k, _) -> Ik.user_key_of k) entries) in
  let probes_of st = st.Cache.hits + st.Cache.misses in
  List.iter
    (fun u ->
      let p = Ik.probe u in
      let before = probes_of (Cache.stats cache) in
      let got = Table.find_last_le t p in
      Alcotest.(check int) ("one cache probe for " ^ u) (before + 1)
        (probes_of (Cache.stats cache));
      Alcotest.(check bool) ("newest version of " ^ u) true (got = last_le entries p))
    probes;
  Table.close t

(* A user key whose versions straddle a block boundary keeps the exact
   last key as the earlier block's separator, so a probe for it at
   [max_ts] still routes on to its newer versions; a probe at every
   snapshot timestamp finds the right version. Every other separator is
   its block's last user key at [max_ts]. *)
let table_straddling_versions_keep_last_key () =
  let entries = long_key_entries () in
  let path =
    build_ik_table ~block_size:4096 "t_straddle" entries
  in
  let t = Table.open_file ~cmp:Ik.comparator path in
  let keys = List.map fst entries in
  let straddled = ref [] in
  List.iteri
    (fun i (sep, _) ->
      (* The block's last key, and the next block's first. *)
      let last = List.find (fun k -> Ik.compare_encoded k sep <= 0) (List.rev keys) in
      let u = Ik.user_key_of last in
      match List.find_opt (fun k -> Ik.compare_encoded k sep > 0) keys with
      | Some next when Ik.user_key_of next = u ->
          Alcotest.(check string) (Printf.sprintf "block %d: its last key" i) last sep;
          straddled := u :: !straddled
      | Some _ | None ->
          Alcotest.(check string) (Printf.sprintf "block %d: at max_ts" i) (Ik.probe u) sep)
    (Table.index_anchors t);
  Alcotest.(check bool) "some user key straddles a boundary" true (!straddled <> []);
  List.iter
    (fun u ->
      List.iter
        (fun ts ->
          let p = Ik.make u ts in
          Alcotest.(check bool) (Printf.sprintf "%s at %d" u ts) true
            (Table.find_last_le t p = last_le entries p))
        [ 0; 5; 10; 15; 20; 25; 30; 35; Ik.max_ts ])
    !straddled;
  Table.close t

(* A table whose index holds each block's last key, as the default
   [separator] writes it and as tables were written before the
   internal-key order had one, reads through the same lookup: the probe
   that sorts past a block's last key enters the next block and falls
   back. *)
let table_last_key_index_still_reads () =
  let entries = long_key_entries () in
  let path = tmp_path "t_last_key_index" in
  let last_key_order =
    Comparator.make ~name:"clsm-internal-key" Ik.comparator.Comparator.compare_sub
  in
  let b = Table_builder.create ~block_size:4096 ~cmp:last_key_order ~path () in
  List.iter (fun (k, v) -> Table_builder.add b ~key:k ~value:v) entries;
  ignore (Table_builder.finish b);
  let t = Table.open_file ~cmp:Ik.comparator path in
  let seps = List.map fst (Table.index_anchors t) in
  Alcotest.(check bool) "separators are entries' keys" true
    (List.for_all (fun s -> List.mem_assoc s entries) seps);
  let probes =
    List.concat_map
      (fun (k, _) ->
        let u = Ik.user_key_of k and ts = Ik.ts_of k in
        [ k; Ik.make u (ts - 1); Ik.make u (ts + 1); Ik.probe u; Ik.make (u ^ "\x00") 0 ])
      entries
  in
  List.iter
    (fun p ->
      if Table.find_last_le t p <> last_le entries p then
        Alcotest.failf "find_last_le %S differs from last <= probe" p)
    (Ik.make "" 0 :: probes);
  Table.close t

let prop_table_roundtrip =
  QCheck.Test.make ~name:"table roundtrip (random sorted keys)" ~count:25
    QCheck.(list (pair (string_of_size Gen.(1 -- 16)) (string_of_size Gen.(0 -- 32))))
    (fun pairs ->
      let module M = Map.Make (String) in
      let pairs =
        M.bindings (List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs)
      in
      QCheck.assume (pairs <> []);
      let path, _ = build_table ~block_size:128 "t_prop" pairs in
      let t = Table.open_file ~cmp:Comparator.bytewise path in
      let got = Table.to_list t in
      Table.close t;
      got = pairs)

(* ---------- A store written at restart interval 16 ---------- *)

(* test/data/interval16_store, written by test/data/write_interval16_store.sh
   with a build whose tables cut data blocks at restart interval 16:
   three tables and a write-ahead log. These are its contents. *)
let interval16_contents =
  let alphabet = "abcdefghijklmnopqrstuvwxyz" in
  List.init 1250 (fun i ->
      let value =
        if i >= 1200 then Some (Printf.sprintf "wal-%d" i)
        else if i mod 7 = 0 then None
        else if i mod 3 = 1 then Some (Printf.sprintf "second-%d" i)
        else Some (Printf.sprintf "value-%d-%s" i (String.sub alphabet 0 (i mod 27)))
      in
      (Printf.sprintf "key-%05d" i, value))

(* The fixture beside the test executable, where dune copies it, or
   under the source tree when the executable runs from the repo root. *)
let interval16_fixture () =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "data" in
  let dir = if Sys.file_exists beside then beside else Filename.concat "test" "data" in
  Filename.concat dir "interval16_store"

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let contents = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc contents))
    (Sys.readdir src)

(* Every key by [get], a full [range] and [verify_integrity] on a copy
   of the fixture: a store written before data blocks had a restart at
   every entry reads through the restart search and its scan of each
   run. *)
let interval16_store_still_reads () =
  let module Db = Clsm_core.Db in
  let src = interval16_fixture () in
  (* Its first table's first block holds runs of several entries. *)
  let table = Filename.concat src "000004.sst" in
  let t = Table.open_file ~cmp:Ik.comparator table in
  let size = snd (List.hd (Table.index_anchors t)) in
  Table.close t;
  let image = In_channel.with_open_bin table In_channel.input_all in
  let block = Block.parse ~len:size Ik.comparator image in
  let entries = Block.Iter.fold (fun _ _ n -> n + 1) block 0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d entries on %d restarts" entries (Block.num_restarts block))
    true
    (entries > 2 * Block.num_restarts block);
  let dir = Test_dirs.fresh "interval16" () in
  copy_dir src dir;
  let db = Db.open_store (Clsm_core.Options.default ~dir) in
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) ("get " ^ k) v (Db.get db k))
    interval16_contents;
  Alcotest.(check (list (pair string string)))
    "range"
    (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) interval16_contents)
    (Db.range db);
  Alcotest.(check (list string)) "verify_integrity" [] (Db.verify_integrity db);
  Db.close db

let suites =
  [
    ( "sstable.bloom",
      [
        Alcotest.test_case "no false negatives" `Quick bloom_no_false_negatives;
        Alcotest.test_case "false positive rate" `Quick bloom_false_positive_rate;
        Alcotest.test_case "encode/decode" `Quick bloom_encode_decode;
        Alcotest.test_case "empty filter" `Quick bloom_empty;
      ] );
    ( "sstable.block",
      [
        Alcotest.test_case "roundtrip" `Quick block_roundtrip;
        Alcotest.test_case "seek" `Quick block_seek;
        Alcotest.test_case "prefix compression" `Quick block_restart_compression;
        Alcotest.test_case "single entry / corrupt" `Quick
          block_single_entry_and_corrupt;
        Alcotest.test_case "seek_le" `Quick block_seek_le;
      ] );
    ( "sstable.block.props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_block_matches_list;
          prop_block_seek_matches_model;
          prop_block_seek_le_matches_model;
          prop_block_iter_matches_oracle;
        ] );
    ("sstable.block.fuzz", List.map QCheck_alcotest.to_alcotest [ prop_block_fuzz ]);
    ( "sstable.cache",
      [
        Alcotest.test_case "lru eviction" `Quick cache_lru_eviction;
        Alcotest.test_case "weighted entries" `Quick cache_weighted;
        Alcotest.test_case "find_or_add" `Quick cache_find_or_add;
        Alcotest.test_case "concurrent" `Quick cache_concurrent;
      ] );
    ( "sstable.table",
      [
        Alcotest.test_case "roundtrip" `Quick table_roundtrip;
        Alcotest.test_case "seek and bloom" `Quick table_seek_and_bloom;
        Alcotest.test_case "block cache" `Quick table_with_cache;
        Alcotest.test_case "corruption detected" `Quick table_corruption_detected;
        Alcotest.test_case "truncated rejected" `Quick table_truncated_rejected;
        Alcotest.test_case "malformed block is Corrupt" `Quick
          table_malformed_block_is_corrupt;
        Alcotest.test_case "filter key extractor" `Quick table_filter_key_extractor;
        Alcotest.test_case "tiny blocks" `Quick
          table_single_and_empty_block_boundaries;
        Alcotest.test_case "find_last_le" `Quick table_find_last_le;
        Alcotest.test_case "malformed later block is Corrupt" `Quick
          table_malformed_later_block_is_corrupt;
        Alcotest.test_case "restarts out of order refused" `Quick
          table_restarts_out_of_order_refused;
        Alcotest.test_case "malformed index refused" `Quick
          table_malformed_index_refused;
        Alcotest.test_case "failed open closes its file" `Quick
          table_failed_open_closes_file;
        Alcotest.test_case "a lookup enters one block" `Quick
          table_lookup_enters_one_block;
        Alcotest.test_case "straddling versions keep the last key" `Quick
          table_straddling_versions_keep_last_key;
        Alcotest.test_case "a last-key index still reads" `Quick
          table_last_key_index_still_reads;
      ] );
    ( "sstable.compat",
      [
        Alcotest.test_case "an interval-16 store still reads" `Quick
          interval16_store_still_reads;
      ] );
    ( "sstable.comparator.props",
      List.map QCheck_alcotest.to_alcotest [ prop_comparators_match_reference ] );
    ( "sstable.table.props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_table_roundtrip;
          prop_table_find_last_le;
          prop_table_search_matches_fold;
        ] );
  ]
