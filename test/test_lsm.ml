open Clsm_lsm

let qtests = List.map QCheck_alcotest.to_alcotest

(* ---------- Internal_key ---------- *)

let ikey_roundtrip () =
  List.iter
    (fun (k, ts) ->
      let enc = Internal_key.make k ts in
      Alcotest.(check string) "user key" k (Internal_key.user_key_of enc);
      Alcotest.(check int) "ts" ts (Internal_key.ts_of enc);
      let d = Internal_key.decode enc in
      Alcotest.(check string) "decode uk" k d.Internal_key.user_key;
      Alcotest.(check int) "decode ts" ts d.Internal_key.ts)
    [ ("", 0); ("a", 1); ("key", 123456789); ("\x00\xff", Internal_key.max_ts) ]

let ikey_ordering () =
  let le a b = Internal_key.compare_encoded a b < 0 in
  (* user key dominates *)
  Alcotest.(check bool) "a < b" true
    (le (Internal_key.make "a" 100) (Internal_key.make "b" 1));
  (* same user key: ts ascending *)
  Alcotest.(check bool) "ts asc" true
    (le (Internal_key.make "k" 1) (Internal_key.make "k" 2));
  (* prefix keys: "a" < "ab" regardless of ts bytes *)
  Alcotest.(check bool) "prefix" true
    (le (Internal_key.make "a" Internal_key.max_ts) (Internal_key.make "ab" 1));
  (* probe is the supremum of a key's versions *)
  Alcotest.(check bool) "probe above" true
    (le (Internal_key.make "k" 999999) (Internal_key.probe "k"));
  Alcotest.(check bool) "probe below next key" true
    (le (Internal_key.probe "k") (Internal_key.make "k\x00" 1))

let prop_ikey_order_matches_pairs =
  QCheck.Test.make ~name:"encoded order = (user_key, ts) order" ~count:500
    QCheck.(
      pair
        (pair (string_of_size Gen.(0 -- 6)) (map abs small_int))
        (pair (string_of_size Gen.(0 -- 6)) (map abs small_int)))
    (fun ((k1, t1), (k2, t2)) ->
      let c_enc =
        Internal_key.compare_encoded (Internal_key.make k1 t1)
          (Internal_key.make k2 t2)
      in
      let c_pair = compare (k1, t1) (k2, t2) in
      compare c_enc 0 = compare c_pair 0)

(* ---------- Entry ---------- *)

let entry_roundtrip () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "roundtrip" true (Entry.decode (Entry.encode e) = e))
    [ Entry.Value ""; Entry.Value "hello"; Entry.Tombstone ];
  Alcotest.(check bool) "tombstone" true (Entry.is_tombstone Entry.Tombstone);
  Alcotest.(check (option string)) "to_option" (Some "x")
    (Entry.to_option (Entry.Value "x"));
  match Entry.decode "\x07bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad tag accepted"

(* ---------- Iter / Merge_iter ---------- *)

let sorted l = List.sort compare l

let iter_run () =
  let files =
    [| [ ("a", "1"); ("b", "2") ]; []; [ ("x", "3"); ("y", "4") ] |]
  in
  let opened = ref [] in
  let it =
    Iter.run ~cmp:String.compare ~largest:[| "b"; "b"; "y" |] (fun i ->
        opened := i :: !opened;
        Iter.of_sorted_list ~cmp:String.compare files.(i))
  in
  Alcotest.(check (list (pair string string)))
    "all entries"
    [ ("a", "1"); ("b", "2"); ("x", "3"); ("y", "4") ]
    (Iter.to_list it);
  it.Iter.seek "c";
  Alcotest.(check string) "seek across gap" "x" (it.Iter.key ());
  opened := [];
  it.Iter.seek "y";
  Alcotest.(check string) "seek into last" "y" (it.Iter.key ());
  Alcotest.(check (list int)) "a seek in the entered file opens none" []
    !opened;
  it.Iter.seek "a";
  Alcotest.(check (list int)) "a seek opens only its file" [ 0 ] !opened;
  it.Iter.seek "z";
  Alcotest.(check bool) "seek past end" false (it.Iter.valid ())

(* The run iterator against the flat sorted list of the same entries, cut
   into files at arbitrary points — so versions of one user key straddle
   adjacent files — with empty files mixed in, under sequences of seeks
   (before the first file, after the last, into gaps, onto straddling
   keys), seek_to_first and nexts across file boundaries. *)
type run_op = Seek of string * int | First | Next of int

let run_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map2
            (fun uk ts -> Seek (uk, ts))
            (oneofl [ ""; "a"; "b"; "bb"; "c"; "d"; "dd"; "e"; "z" ])
            (oneofl [ 0; 1; 2; 3; 5 ]) );
        (1, return First);
        (3, map (fun n -> Next n) (1 -- 6));
      ])

let show_run_op = function
  | Seek (uk, ts) -> Printf.sprintf "seek %S@%d" uk ts
  | First -> "first"
  | Next n -> Printf.sprintf "next %d" n

let prop_run_equals_flat =
  QCheck.Test.make ~name:"run iterator = flat sorted list" ~count:500
    QCheck.(
      triple
        (make
           ~print:Print.(list (pair string int))
           Gen.(
             list_size (0 -- 24)
               (pair (oneofl [ "a"; "b"; "c"; "d"; "e" ]) (1 -- 4))))
        (make ~print:Print.(list int) Gen.(list_size (0 -- 8) (0 -- 24)))
        (make
           ~print:Print.(list show_run_op)
           Gen.(list_size (1 -- 12) run_op_gen)))
    (fun (versions, cuts, ops) ->
      let cmp = Internal_key.compare_encoded in
      let entries =
        List.sort_uniq compare versions
        |> List.map (fun (uk, ts) ->
               (Internal_key.make uk ts, Entry.encode (Entry.Value (uk ^ string_of_int ts))))
        |> List.sort (fun (a, _) (b, _) -> cmp a b)
      in
      let arr = Array.of_list entries in
      let n = Array.length arr in
      (* Cut points, repeats allowed: a repeated cut is an empty file. *)
      let cuts = List.sort compare (List.map (fun c -> min c n) cuts) in
      let bounds = (0 :: cuts) @ [ n ] in
      let rec files = function
        | a :: (b :: _ as rest) -> Array.to_list (Array.sub arr a (b - a)) :: files rest
        | [ _ ] | [] -> []
      in
      let files = Array.of_list (files bounds) in
      (* An empty file repeats its predecessor's bound (the smallest key
         when it comes first). *)
      let floor = if n = 0 then Internal_key.make "" 0 else fst arr.(0) in
      let largest = Array.make (Array.length files) floor in
      Array.iteri
        (fun i f ->
          largest.(i) <-
            (match List.rev f with
            | (k, _) :: _ -> k
            | [] -> if i = 0 then floor else largest.(i - 1)))
        files;
      let run =
        Iter.run ~cmp ~largest (fun i -> Iter.of_sorted_list ~cmp files.(i))
      in
      let flat = Iter.of_sorted_list ~cmp entries in
      let state (it : Iter.t) =
        if it.Iter.valid () then Some (it.Iter.key (), it.Iter.value (), it.Iter.entry ())
        else None
      in
      let apply (it : Iter.t) = function
        | Seek (uk, ts) -> it.Iter.seek (Internal_key.make uk ts)
        | First -> it.Iter.seek_to_first ()
        | Next k ->
            for _ = 1 to k do
              it.Iter.next ()
            done
      in
      Iter.to_list run = entries
      && List.for_all
           (fun op ->
             apply run op;
             apply flat op;
             state run = state flat)
           ops)

let merge_basic () =
  let a = Iter.of_sorted_list ~cmp:String.compare [ ("a", "A"); ("c", "C") ] in
  let b = Iter.of_sorted_list ~cmp:String.compare [ ("b", "B"); ("d", "D") ] in
  let m = Merge_iter.merge ~cmp:String.compare [ a; b ] in
  Alcotest.(check (list (pair string string)))
    "interleaved"
    [ ("a", "A"); ("b", "B"); ("c", "C"); ("d", "D") ]
    (Iter.to_list m)

let merge_tie_break () =
  (* Equal keys: the earlier (newer) source is emitted first. *)
  let newer = Iter.of_sorted_list ~cmp:String.compare [ ("k", "new") ] in
  let older = Iter.of_sorted_list ~cmp:String.compare [ ("k", "old") ] in
  let m = Merge_iter.merge ~cmp:String.compare [ newer; older ] in
  Alcotest.(check (list (pair string string)))
    "newer first"
    [ ("k", "new"); ("k", "old") ]
    (Iter.to_list m)

let prop_merge_equals_sort =
  QCheck.Test.make ~name:"merge = sorted union" ~count:200
    QCheck.(
      list_of_size
        Gen.(0 -- 8)
        (list_of_size Gen.(0 -- 30) (string_of_size Gen.(1 -- 4))))
    (fun keylists ->
      let lists =
        List.map
          (fun keys ->
            List.sort_uniq compare (List.map (fun k -> (k, k)) keys))
          keylists
      in
      let iters = List.map (Iter.of_sorted_list ~cmp:String.compare) lists in
      let merged = Iter.to_list (Merge_iter.merge ~cmp:String.compare iters) in
      sorted merged = sorted (List.concat lists))

let prop_merge_seek =
  QCheck.Test.make ~name:"merge seek = first >= target" ~count:200
    QCheck.(
      pair
        (list_of_size
           Gen.(0 -- 6)
           (list_of_size Gen.(0 -- 20) (string_of_size Gen.(1 -- 3))))
        (string_of_size Gen.(1 -- 3)))
    (fun (keylists, target) ->
      let lists =
        List.map
          (fun keys -> List.sort_uniq compare (List.map (fun k -> (k, k)) keys))
          keylists
      in
      let m =
        Merge_iter.merge ~cmp:String.compare
          (List.map (Iter.of_sorted_list ~cmp:String.compare) lists)
      in
      m.Iter.seek target;
      let got = if m.Iter.valid () then Some (m.Iter.key ()) else None in
      let all = sorted (List.concat_map (List.map fst) lists) in
      let expected = List.find_opt (fun k -> k >= target) all in
      got = expected)

(* ---------- heap merge ≡ linear merge ≡ naive merge ---------- *)

(* The naive reference: concatenate in source order, stable-sort by key —
   equal keys keep source order (newer source first), duplicates are all
   emitted, exactly the documented merge semantics. *)
let naive_merge lists =
  List.stable_sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.concat lists)

let mk_lists keylists =
  List.map
    (fun keys -> List.sort_uniq compare (List.map (fun k -> (k, k)) keys))
    keylists

let engines =
  [
    ("linear", Merge_iter.merge_linear);
    ("heap", Merge_iter.merge_heap);
    ("auto", Merge_iter.merge);
  ]

let prop_merge_engines_agree =
  QCheck.Test.make ~name:"heap merge = linear merge = naive merge" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 10)
        (list_of_size Gen.(0 -- 15) (string_of_size Gen.(1 -- 3))))
    (fun keylists ->
      let lists = mk_lists keylists in
      let expected = naive_merge lists in
      List.for_all
        (fun (_, engine) ->
          let iters =
            List.map (Iter.of_sorted_list ~cmp:String.compare) lists
          in
          Iter.to_list (engine ~cmp:String.compare iters) = expected)
        engines)

(* Repeated seeks interleaved with nexts must agree across engines and
   with the naive model — this is what exercises the exhaustion-bound
   bookkeeping (a seek whose target a dead source's bound covers skips the
   physical re-seek, and a later lower seek must revive the source). *)
let prop_merge_engines_agree_on_seeks =
  QCheck.Test.make ~name:"merge engines agree under seek/next sequences"
    ~count:300
    QCheck.(
      pair
        (list_of_size
           Gen.(0 -- 7)
           (list_of_size Gen.(0 -- 12) (string_of_size Gen.(1 -- 2))))
        (list_of_size Gen.(1 -- 12) (string_of_size Gen.(1 -- 2))))
    (fun (keylists, targets) ->
      let lists = mk_lists keylists in
      let all = naive_merge lists in
      List.for_all
        (fun (_, engine) ->
          let iters =
            List.map (Iter.of_sorted_list ~cmp:String.compare) lists
          in
          let m = engine ~cmp:String.compare iters in
          List.for_all
            (fun target ->
              m.Iter.seek target;
              (* after the seek, drain two entries and compare with the
                 naive remainder *)
              let got = ref [] in
              for _ = 1 to 2 do
                if m.Iter.valid () then begin
                  got := (m.Iter.key (), m.Iter.value ()) :: !got;
                  m.Iter.next ()
                end
              done;
              let expected =
                List.filter (fun (k, _) -> k >= target) all |> fun l ->
                List.filteri (fun i _ -> i < 2) l
              in
              List.rev !got = expected)
            targets)
        engines)

(* An exhausted source must not be physically re-seeked while the learned
   bound proves the target empty, and must revive on a lower seek. *)
let merge_skips_dead_source_seeks () =
  List.iter
    (fun (name, engine) ->
      let seeks = ref 0 in
      let base = Iter.of_sorted_list ~cmp:String.compare [ ("a", "1") ] in
      let counted = { base with Iter.seek = (fun t -> incr seeks; base.Iter.seek t) } in
      let other = Iter.of_sorted_list ~cmp:String.compare [ ("c", "3") ] in
      let m = engine ~cmp:String.compare [ counted; other ] in
      m.Iter.seek "b";
      Alcotest.(check int) (name ^ ": first dead seek hits the source") 1 !seeks;
      Alcotest.(check string) (name ^ ": other source answers") "c" (m.Iter.key ());
      m.Iter.seek "bb";
      Alcotest.(check int) (name ^ ": covered re-seek skipped") 1 !seeks;
      m.Iter.seek "d";
      Alcotest.(check int) (name ^ ": still skipped") 1 !seeks;
      Alcotest.(check bool) (name ^ ": all dead") false (m.Iter.valid ());
      m.Iter.seek "a";
      Alcotest.(check int) (name ^ ": lower seek revives") 2 !seeks;
      Alcotest.(check string) (name ^ ": revived key") "a" (m.Iter.key ()))
    engines

(* A next() that runs a source dry teaches a strict bound: seeking exactly
   the last emitted key must still re-seek (entries = that key exist), but
   seeking past it must not. *)
let merge_next_exhaustion_bound () =
  List.iter
    (fun (name, engine) ->
      let seeks = ref 0 in
      let base = Iter.of_sorted_list ~cmp:String.compare [ ("a", "1"); ("b", "2") ] in
      let counted = { base with Iter.seek = (fun t -> incr seeks; base.Iter.seek t) } in
      let m = engine ~cmp:String.compare [ counted ] in
      m.Iter.seek_to_first ();
      m.Iter.next ();
      m.Iter.next ();
      Alcotest.(check bool) (name ^ ": drained") false (m.Iter.valid ());
      Alcotest.(check int) (name ^ ": no seeks so far") 0 !seeks;
      m.Iter.seek "b";
      Alcotest.(check int) (name ^ ": seek at last key is real") 1 !seeks;
      Alcotest.(check string) (name ^ ": finds it") "b" (m.Iter.key ());
      m.Iter.next ();
      m.Iter.seek "bb";
      Alcotest.(check int) (name ^ ": seek past last key skipped") 1 !seeks)
    engines

(* ---------- Iter.clamp (half-open range views) ---------- *)

let simple_iter entries = Iter.of_sorted_list ~cmp:String.compare entries

let clamp_keys ?lo ?hi entries =
  let it = Iter.clamp ?lo ?hi ~cmp:String.compare (simple_iter entries) in
  List.map fst (Iter.to_list it)

let abc = [ ("a", "1"); ("b", "2"); ("c", "3"); ("d", "4"); ("e", "5") ]

let clamp_basic () =
  Alcotest.(check (list string)) "unclamped" [ "a"; "b"; "c"; "d"; "e" ]
    (clamp_keys abc);
  Alcotest.(check (list string)) "lo only" [ "c"; "d"; "e" ]
    (clamp_keys ~lo:"c" abc);
  Alcotest.(check (list string)) "hi only" [ "a"; "b" ] (clamp_keys ~hi:"c" abc);
  Alcotest.(check (list string)) "both" [ "b"; "c" ]
    (clamp_keys ~lo:"b" ~hi:"d" abc);
  Alcotest.(check (list string)) "lo between keys" [ "c"; "d"; "e" ]
    (clamp_keys ~lo:"bb" abc);
  Alcotest.(check (list string)) "hi between keys" [ "a"; "b"; "c" ]
    (clamp_keys ~hi:"cc" abc);
  Alcotest.(check (list string)) "empty window" [] (clamp_keys ~lo:"c" ~hi:"c" abc);
  Alcotest.(check (list string)) "window past end" []
    (clamp_keys ~lo:"x" ~hi:"z" abc);
  Alcotest.(check (list string)) "empty source" [] (clamp_keys ~lo:"a" ~hi:"z" [])

let clamp_seek () =
  let it = Iter.clamp ~lo:"b" ~hi:"d" ~cmp:String.compare (simple_iter abc) in
  (* seek below lo lands on lo *)
  it.Iter.seek "a";
  Alcotest.(check string) "seek below lo" "b" (it.Iter.key ());
  (* seek inside the window *)
  it.Iter.seek "c";
  Alcotest.(check string) "seek inside" "c" (it.Iter.key ());
  (* seek at/above hi is invalid *)
  it.Iter.seek "d";
  Alcotest.(check bool) "seek at hi invalid" false (it.Iter.valid ());
  (* next stops at hi and never advances the view past it *)
  it.Iter.seek_to_first ();
  it.Iter.next ();
  Alcotest.(check string) "next inside" "c" (it.Iter.key ());
  it.Iter.next ();
  Alcotest.(check bool) "next hits hi" false (it.Iter.valid ());
  it.Iter.next ();
  Alcotest.(check bool) "next after invalid stays invalid" false (it.Iter.valid ())

let clamp_user_key_partition () =
  (* Internal-key clamping at [make uk 0] boundaries partitions by user
     key: every version of a key lands in exactly one view. *)
  let entries =
    List.map
      (fun (k, ts) -> (Internal_key.make k ts, Printf.sprintf "%s@%d" k ts))
      [ ("a", 1); ("a", 9); ("b", 2); ("b", 7); ("c", 3) ]
  in
  let src () = Iter.of_sorted_list ~cmp:Internal_key.compare_encoded entries in
  let keys_of it =
    List.map
      (fun (ik, _) -> (Internal_key.user_key_of ik, Internal_key.ts_of ik))
      (Iter.to_list it)
  in
  let left =
    Iter.clamp ~hi:(Internal_key.make "b" 0) ~cmp:Internal_key.compare_encoded
      (src ())
  in
  let right =
    Iter.clamp ~lo:(Internal_key.make "b" 0) ~cmp:Internal_key.compare_encoded
      (src ())
  in
  Alcotest.(check (list (pair string int)))
    "left has every a-version" [ ("a", 1); ("a", 9) ] (keys_of left);
  Alcotest.(check (list (pair string int)))
    "right has every b- and c-version"
    [ ("b", 2); ("b", 7); ("c", 3) ]
    (keys_of right)

let prop_clamp_equals_filter =
  QCheck.Test.make ~name:"clamp = filter on [lo, hi)" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 30) (string_of_size Gen.(0 -- 4)))
        (string_of_size Gen.(0 -- 4))
        (string_of_size Gen.(0 -- 4)))
    (fun (raw, lo, hi) ->
      let entries =
        List.sort_uniq compare (List.map (fun k -> (k, k)) raw)
      in
      let got = clamp_keys ~lo ~hi entries in
      let expected =
        List.filter (fun (k, _) -> k >= lo && k < hi) entries |> List.map fst
      in
      got = expected)

(* ---------- Compaction.filter_group (GC policy) ---------- *)

let v ts = (ts, Entry.Value (string_of_int ts))
let tomb ts = (ts, Entry.Tombstone)

let check_filter name ~snapshots ~drop versions expected =
  Alcotest.(check (list int))
    name expected
    (Compaction.filter_group ~snapshots ~drop_tombstones:drop versions)

let gc_no_snapshots () =
  (* Only the newest survives. *)
  check_filter "plain" ~snapshots:[] ~drop:false [ v 1; v 5; v 9 ] [ 9 ];
  check_filter "single" ~snapshots:[] ~drop:false [ v 3 ] [ 3 ];
  check_filter "empty" ~snapshots:[] ~drop:false [] []

let gc_snapshot_pins () =
  (* Snapshot 5 pins version 5; snapshot 6 pins version 5 too. *)
  check_filter "pin exact" ~snapshots:[ 5 ] ~drop:false [ v 1; v 5; v 9 ] [ 5; 9 ];
  check_filter "pin between" ~snapshots:[ 6 ] ~drop:false [ v 1; v 5; v 9 ] [ 5; 9 ];
  check_filter "pin old" ~snapshots:[ 2 ] ~drop:false [ v 1; v 5; v 9 ] [ 1; 9 ];
  check_filter "pin below all" ~snapshots:[ 0 ] ~drop:false [ v 1; v 5 ] [ 5 ];
  check_filter "two snapshots" ~snapshots:[ 2; 6 ] ~drop:false
    [ v 1; v 5; v 9 ] [ 1; 5; 9 ];
  check_filter "same window" ~snapshots:[ 5; 6; 7 ] ~drop:false
    [ v 1; v 5; v 9 ] [ 5; 9 ]

let gc_tombstones () =
  (* Newest tombstone dropped at the bottom only when oldest survivor. *)
  check_filter "kept off bottom" ~snapshots:[] ~drop:false [ v 1; tomb 9 ] [ 9 ];
  check_filter "dropped at bottom" ~snapshots:[] ~drop:true [ v 1; tomb 9 ] [];
  (* A pinned older value blocks elision of nothing — the tombstone is not
     the oldest survivor, so it must stay to shadow the value. *)
  check_filter "value pinned, tombstone stays" ~snapshots:[ 1 ] ~drop:true
    [ v 1; tomb 9 ] [ 1; 9 ];
  (* Leading tombstones all go. *)
  check_filter "leading chain" ~snapshots:[ 3 ] ~drop:true
    [ tomb 2; tomb 3; v 9 ]
    [ 9 ];
  check_filter "tomb then value kept off bottom" ~snapshots:[ 3 ] ~drop:false
    [ tomb 2; tomb 3; v 9 ]
    [ 3; 9 ]

let prop_gc_keeps_snapshot_views =
  (* For every snapshot, the visible version before and after GC match. *)
  let gen =
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (pair (int_range 1 30) bool))
        (list_of_size Gen.(0 -- 4) (int_range 0 35)))
  in
  QCheck.Test.make ~name:"GC preserves snapshot-visible versions" ~count:500 gen
    (fun (raw_versions, snapshots) ->
      let versions =
        List.sort_uniq (fun a b -> compare (fst a) (fst b)) raw_versions
        |> List.map (fun (ts, is_tomb) ->
               if is_tomb then tomb ts else v ts)
      in
      QCheck.assume (versions <> []);
      let kept =
        Compaction.filter_group ~snapshots ~drop_tombstones:false versions
      in
      let visible vs snap =
        List.fold_left
          (fun acc (ts, e) -> if ts <= snap then Some (ts, e) else acc)
          None vs
      in
      let kept_versions = List.filter (fun (ts, _) -> List.mem ts kept) versions in
      List.for_all
        (fun snap -> visible versions snap = visible kept_versions snap)
        (Internal_key.max_ts :: snapshots))

(* ---------- Manifest ---------- *)

let tmp_dir = Test_dirs.dir "lsm"

let manifest_roundtrip () =
  let m =
    {
      Manifest.next_file_number = 42;
      last_ts = 99999;
      wal_number = 17;
      files = [ (0, 5); (0, 3); (1, 2); (2, 1) ];
    }
  in
  let written = Manifest.save ~dir:tmp_dir m in
  Alcotest.(check int) "save reports the file size" written
    (Unix.stat (Filename.concat tmp_dir "MANIFEST")).Unix.st_size;
  let path = Table_file.manifest_path ~dir:tmp_dir in
  (match Manifest.load ~dir:tmp_dir () with
  | Some (m', quarantined) ->
      Alcotest.(check int) "next_file" 42 m'.Manifest.next_file_number;
      Alcotest.(check int) "last_ts" 99999 m'.Manifest.last_ts;
      Alcotest.(check int) "wal" 17 m'.Manifest.wal_number;
      Alcotest.(check (list (pair int int))) "files (order preserved)"
        m.Manifest.files m'.Manifest.files;
      Alcotest.(check (list int)) "no quarantine records" [] quarantined
  | None -> Alcotest.fail "manifest missing");
  (* [quarantine] records of an older store can only be loaded: a
     hand-written manifest carrying two, under a valid checksum *)
  let body =
    "clsm-manifest v1\nnext_file 42\nlast_ts 99999\nwal 17\nfile 0 5\n\
     quarantine 9\nquarantine 4\n"
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%scrc %08x\n" body (Clsm_util.Crc32c.string body));
  (match Manifest.load ~dir:tmp_dir () with
  | Some (m', quarantined) ->
      Alcotest.(check (list (pair int int))) "old files" [ (0, 5) ]
        m'.Manifest.files;
      Alcotest.(check (list int)) "quarantined (order preserved)" [ 9; 4 ]
        quarantined
  | None -> Alcotest.fail "old manifest missing");
  ignore (Manifest.save ~dir:tmp_dir m : int);
  (* corruption detected *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let tampered = String.map (fun c -> if c = '4' then '5' else c) contents in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc tampered);
  (match Manifest.load ~dir:tmp_dir () with
  | exception Failure _ -> ()
  | Some _ -> Alcotest.fail "tampered manifest accepted"
  | None -> Alcotest.fail "tampered manifest vanished");
  Sys.remove path;
  Alcotest.(check bool) "absent manifest" true (Manifest.load ~dir:tmp_dir () = None)

(* ---------- Lsm_config ---------- *)

let level_budgets () =
  let cfg = Lsm_config.default in
  Alcotest.(check int) "L1" cfg.Lsm_config.level1_max_bytes
    (Lsm_config.max_bytes_for_level cfg 1);
  Alcotest.(check int) "L2"
    (cfg.Lsm_config.level1_max_bytes * cfg.Lsm_config.level_size_multiplier)
    (Lsm_config.max_bytes_for_level cfg 2);
  Alcotest.(check int) "L3"
    (cfg.Lsm_config.level1_max_bytes * 100)
    (Lsm_config.max_bytes_for_level cfg 3)

let suites =
  [
    ( "lsm.internal_key",
      [
        Alcotest.test_case "roundtrip" `Quick ikey_roundtrip;
        Alcotest.test_case "ordering" `Quick ikey_ordering;
      ] );
    ("lsm.internal_key.props", qtests [ prop_ikey_order_matches_pairs ]);
    ("lsm.entry", [ Alcotest.test_case "roundtrip" `Quick entry_roundtrip ]);
    ( "lsm.iter",
      [
        Alcotest.test_case "run" `Quick iter_run;
        Alcotest.test_case "merge basic" `Quick merge_basic;
        Alcotest.test_case "merge tie-break" `Quick merge_tie_break;
        Alcotest.test_case "merge skips dead-source seeks" `Quick
          merge_skips_dead_source_seeks;
        Alcotest.test_case "merge next-exhaustion bound" `Quick
          merge_next_exhaustion_bound;
      ] );
    ( "lsm.iter.props",
      qtests
        [
          prop_merge_equals_sort;
          prop_merge_seek;
          prop_merge_engines_agree;
          prop_merge_engines_agree_on_seeks;
          prop_run_equals_flat;
        ] );
    ( "lsm.iter.clamp",
      [
        Alcotest.test_case "windows" `Quick clamp_basic;
        Alcotest.test_case "seek semantics" `Quick clamp_seek;
        Alcotest.test_case "user-key partition" `Quick clamp_user_key_partition;
      ] );
    ("lsm.iter.clamp.props", qtests [ prop_clamp_equals_filter ]);
    ( "lsm.gc",
      [
        Alcotest.test_case "no snapshots" `Quick gc_no_snapshots;
        Alcotest.test_case "snapshot pinning" `Quick gc_snapshot_pins;
        Alcotest.test_case "tombstone elision" `Quick gc_tombstones;
      ] );
    ("lsm.gc.props", qtests [ prop_gc_keeps_snapshot_views ]);
    ( "lsm.manifest",
      [ Alcotest.test_case "roundtrip + corruption" `Quick manifest_roundtrip ] );
    ("lsm.config", [ Alcotest.test_case "level budgets" `Quick level_budgets ]);
  ]
