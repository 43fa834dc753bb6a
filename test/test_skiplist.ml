module SL = Clsm_skiplist.Skiplist.Make (String)
module IntMap = Map.Make (String)

let spawn_all fns = List.map Domain.spawn fns |> List.map Domain.join

let check_sorted_strings name keys =
  let rec go = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) (name ^ ": strictly sorted") true (a < b);
        go rest
    | [ _ ] | [] -> ()
  in
  go keys

(* ---------- Sequential semantics ---------- *)

let empty_behaviour () =
  let sl = SL.create () in
  Alcotest.(check bool) "is_empty" true (SL.is_empty sl);
  Alcotest.(check int) "length" 0 (SL.length sl);
  Alcotest.(check (option int)) "find" None (SL.find sl "a");
  Alcotest.(check bool) "find_le" true (SL.find_le sl "a" = None);
  Alcotest.(check bool) "find_ge" true (SL.find_ge sl "a" = None)

let insert_find () =
  let sl = SL.create ~seed:7 () in
  Alcotest.(check bool) "insert b" true (SL.insert sl "b" 2);
  Alcotest.(check bool) "insert a" true (SL.insert sl "a" 1);
  Alcotest.(check bool) "insert c" true (SL.insert sl "c" 3);
  Alcotest.(check bool) "duplicate rejected" false (SL.insert sl "b" 99);
  Alcotest.(check (option int)) "find a" (Some 1) (SL.find sl "a");
  Alcotest.(check (option int)) "find b keeps first" (Some 2) (SL.find sl "b");
  Alcotest.(check (option int)) "find missing" None (SL.find sl "bb");
  Alcotest.(check int) "length" 3 (SL.length sl);
  Alcotest.(check bool) "not empty" false (SL.is_empty sl)

let ordered_iteration () =
  let sl = SL.create ~seed:3 () in
  let keys = [ "delta"; "alpha"; "echo"; "bravo"; "charlie" ] in
  List.iteri (fun i k -> ignore (SL.insert sl k i)) keys;
  let got = List.map fst (SL.to_list sl) in
  Alcotest.(check (list string)) "sorted"
    [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ]
    got

let find_le_ge () =
  let sl = SL.create ~seed:11 () in
  List.iter (fun k -> ignore (SL.insert sl k (String.length k))) [ "b"; "d"; "f" ];
  let fst_opt = Option.map fst in
  Alcotest.(check (option string)) "le below all" None (fst_opt (SL.find_le sl "a"));
  Alcotest.(check (option string)) "le exact" (Some "b") (fst_opt (SL.find_le sl "b"));
  Alcotest.(check (option string)) "le between" (Some "b") (fst_opt (SL.find_le sl "c"));
  Alcotest.(check (option string)) "le above all" (Some "f") (fst_opt (SL.find_le sl "z"));
  Alcotest.(check (option string)) "ge below all" (Some "b") (fst_opt (SL.find_ge sl "a"));
  Alcotest.(check (option string)) "ge exact" (Some "d") (fst_opt (SL.find_ge sl "d"));
  Alcotest.(check (option string)) "ge between" (Some "f") (fst_opt (SL.find_ge sl "e"));
  Alcotest.(check (option string)) "ge above all" None (fst_opt (SL.find_ge sl "z"))

let cursor_walk () =
  let sl = SL.create ~seed:5 () in
  List.iter (fun k -> ignore (SL.insert sl k ())) [ "a"; "c"; "e" ];
  let c = SL.Cursor.make sl in
  Alcotest.(check bool) "fresh invalid" false (SL.Cursor.valid c);
  SL.Cursor.seek_first c;
  Alcotest.(check (option string)) "first" (Some "a")
    (Some (SL.Cursor.key c));
  SL.Cursor.next c;
  Alcotest.(check (option string)) "second" (Some "c")
    (Some (SL.Cursor.key c));
  SL.Cursor.seek c "d";
  Alcotest.(check (option string)) "seek between" (Some "e")
    (Some (SL.Cursor.key c));
  SL.Cursor.next c;
  Alcotest.(check bool) "exhausted" false (SL.Cursor.valid c);
  SL.Cursor.next c;
  Alcotest.(check bool) "next past end is no-op" false (SL.Cursor.valid c)

let fold_and_iter_agree () =
  let sl = SL.create ~seed:13 () in
  for i = 0 to 99 do
    ignore (SL.insert sl (Printf.sprintf "k%04d" i) i)
  done;
  let via_fold = SL.fold (fun _ v acc -> acc + v) sl 0 in
  let via_iter = ref 0 in
  SL.iter (fun _ v -> via_iter := !via_iter + v) sl;
  Alcotest.(check int) "sums agree" via_fold !via_iter;
  Alcotest.(check int) "sum value" (99 * 100 / 2) via_fold

(* ---------- Model-based property ---------- *)

let prop_model_based =
  let gen_ops =
    QCheck.(
      list
        (pair (string_of_size Gen.(1 -- 6)) small_int))
  in
  QCheck.Test.make ~name:"skiplist matches Map model" ~count:200 gen_ops
    (fun ops ->
      let sl = SL.create () in
      let model =
        List.fold_left
          (fun m (k, v) ->
            let added = SL.insert sl k v in
            if IntMap.mem k m then (
              if added then raise Exit;
              m)
            else if not added then raise Exit
            else IntMap.add k v m)
          IntMap.empty ops
      in
      (* contents agree *)
      let sl_list = SL.to_list sl in
      let model_list = IntMap.bindings model in
      sl_list = model_list
      && List.for_all
           (fun (k, v) -> SL.find sl k = Some v)
           model_list
      && SL.find sl "\xff\xff\xff\xff\xff\xff\xff" = None)

let prop_find_le_matches_model =
  let gen =
    QCheck.(
      pair
        (list (string_of_size Gen.(1 -- 4)))
        (string_of_size Gen.(1 -- 4)))
  in
  QCheck.Test.make ~name:"find_le/find_ge match Map model" ~count:300 gen
    (fun (keys, probe) ->
      let sl = SL.create () in
      let model =
        List.fold_left
          (fun m k ->
            ignore (SL.insert sl k (String.length k));
            if IntMap.mem k m then m else IntMap.add k (String.length k) m)
          IntMap.empty keys
      in
      let model_le =
        IntMap.fold
          (fun k v acc -> if k <= probe then Some (k, v) else acc)
          model None
      in
      let model_ge =
        IntMap.fold
          (fun k v acc ->
            if k >= probe && acc = None then Some (k, v) else acc)
          model None
      in
      SL.find_le sl probe = model_le && SL.find_ge sl probe = model_ge)

(* Random mixed workloads driving the Raw locate/try_insert substrate the
   store's rmw (Algorithm 3) is built on: each user key holds a chain of
   versioned entries "key#%08d"; an upsert locates the insertion point at
   (key, +inf), reads the newest version off [prev_binding] and
   CAS-installs the successor version, retrying on conflict. *)

let versioned_upsert sl key v =
  let rec attempt () =
    let loc = SL.Raw.locate sl (key ^ "#\xff") in
    let plen = String.length key + 1 in
    let next_version =
      match SL.Raw.prev_binding loc with
      | Some (pk, _)
        when String.length pk > plen && String.sub pk 0 plen = key ^ "#" ->
          1 + int_of_string (String.sub pk plen 8)
      | Some _ | None -> 1
    in
    let new_key = Printf.sprintf "%s#%08d" key next_version in
    if not (SL.Raw.try_insert sl loc new_key v) then attempt ()
    else new_key
  in
  attempt ()

let newest_version sl key =
  let plen = String.length key + 1 in
  match SL.Raw.prev_binding (SL.Raw.locate sl (key ^ "#\xff")) with
  | Some (pk, v)
    when String.length pk > plen && String.sub pk 0 plen = key ^ "#" ->
      Some (pk, v)
  | Some _ | None -> None

let prop_raw_upsert_vs_model =
  (* ops over a small keyspace: [Some v] = upsert through the Algorithm-3
     path, [None] = read newest version; both checked against a Map model
     of every version ever installed *)
  let gen_ops =
    QCheck.(
      list_of_size Gen.(1 -- 120) (pair (int_range 0 7) (option small_int)))
  in
  QCheck.Test.make ~name:"raw versioned upsert matches Map model" ~count:150
    gen_ops (fun ops ->
      let sl = SL.create () in
      let model =
        List.fold_left
          (fun m (ki, op) ->
            let key = Printf.sprintf "k%d" ki in
            match op with
            | Some v ->
                let vk = versioned_upsert sl key v in
                if IntMap.mem vk m then raise Exit;
                IntMap.add vk v m
            | None ->
                let model_newest =
                  IntMap.fold
                    (fun k v acc ->
                      if
                        String.length k > String.length key
                        && String.sub k 0 (String.length key + 1) = key ^ "#"
                      then Some (k, v)
                      else acc)
                    m None
                in
                if newest_version sl key <> model_newest then raise Exit;
                m)
          IntMap.empty ops
      in
      SL.to_list sl = IntMap.bindings model)

let prop_raw_upsert_concurrent =
  (* 2-3 domains replay the same random key script through the CAS-retry
     loop; every increment must survive, so each key's newest version is
     exactly domains x occurrences *)
  let gen =
    QCheck.(pair (int_range 2 3) (list_of_size Gen.(5 -- 60) (int_range 0 4)))
  in
  QCheck.Test.make ~name:"raw upsert CAS path under domains" ~count:10 gen
    (fun (domains, script) ->
      let sl = SL.create () in
      let worker () =
        List.iter
          (fun ki ->
            ignore (versioned_upsert sl (Printf.sprintf "k%d" ki) ki))
          script;
        0
      in
      ignore (spawn_all (List.init domains (fun _ -> worker)));
      List.for_all
        (fun ki ->
          let key = Printf.sprintf "k%d" ki in
          let occurrences =
            List.length (List.filter (fun k -> k = ki) script)
          in
          match newest_version sl key with
          | Some (vk, _) ->
              int_of_string (String.sub vk (String.length key + 1) 8)
              = domains * occurrences
          | None -> occurrences = 0)
        (List.init 5 Fun.id))

(* ---------- Concurrency ---------- *)

let concurrent_disjoint_inserts () =
  let sl = SL.create () in
  let n = 3_000 in
  let writer tag () =
    for i = 0 to n - 1 do
      let ok = SL.insert sl (Printf.sprintf "%c%06d" tag i) i in
      assert ok
    done;
    0
  in
  ignore (spawn_all [ writer 'a'; writer 'b'; writer 'c'; writer 'd' ]);
  Alcotest.(check int) "all present" (4 * n) (SL.length sl);
  let keys = List.map fst (SL.to_list sl) in
  check_sorted_strings "concurrent" keys;
  for i = 0 to n - 1 do
    assert (SL.find sl (Printf.sprintf "a%06d" i) = Some i)
  done

let concurrent_same_keys () =
  (* All domains race to insert the same key set; exactly one wins each key. *)
  let sl = SL.create () in
  let n = 2_000 in
  let writer tag () =
    let wins = ref 0 in
    for i = 0 to n - 1 do
      if SL.insert sl (Printf.sprintf "k%06d" i) tag then incr wins
    done;
    !wins
  in
  let wins = spawn_all [ writer 1; writer 2; writer 3 ] in
  Alcotest.(check int) "every key won exactly once" n
    (List.fold_left ( + ) 0 wins);
  Alcotest.(check int) "length" n (SL.length sl);
  check_sorted_strings "same-keys" (List.map fst (SL.to_list sl))

let weak_consistency_scan_during_inserts () =
  (* Keys inserted before the scan starts and never removed must all be
     observed; concurrently inserted keys may or may not appear. *)
  let sl = SL.create () in
  let base = 2_000 in
  for i = 0 to base - 1 do
    ignore (SL.insert sl (Printf.sprintf "base%06d" i) (-1))
  done;
  let stop = Atomic.make false in
  let inserter () =
    let i = ref 0 in
    while not (Atomic.get stop) do
      ignore (SL.insert sl (Printf.sprintf "extra%06d" !i) !i);
      incr i
    done;
    0
  in
  let scanner () =
    let seen_base = ref 0 in
    let prev = ref "" in
    let sorted = ref true in
    SL.iter
      (fun k _ ->
        if !prev >= k then sorted := false;
        prev := k;
        if String.length k >= 4 && String.sub k 0 4 = "base" then
          incr seen_base)
      sl;
    Atomic.set stop true;
    if !sorted then !seen_base else -1
  in
  let results = spawn_all [ inserter; scanner ] in
  match results with
  | [ _; seen ] -> Alcotest.(check int) "scan saw all base keys, sorted" base seen
  | _ -> Alcotest.fail "unexpected results"

(* ---------- Raw interface (Algorithm 3 substrate) ---------- *)

let raw_locate_and_insert () =
  let sl = SL.create ~seed:17 () in
  ignore (SL.insert sl "b" 1);
  ignore (SL.insert sl "f" 2);
  let loc = SL.Raw.locate sl "d" in
  Alcotest.(check (option string)) "prev" (Some "b")
    (Option.map fst (SL.Raw.prev_binding loc));
  Alcotest.(check (option string)) "succ" (Some "f")
    (Option.map fst (SL.Raw.succ_binding loc));
  Alcotest.(check bool) "insert succeeds" true (SL.Raw.try_insert sl loc "d" 9);
  Alcotest.(check (option int)) "visible" (Some 9) (SL.find sl "d");
  check_sorted_strings "raw" (List.map fst (SL.to_list sl))

let raw_stale_location_fails () =
  let sl = SL.create ~seed:19 () in
  ignore (SL.insert sl "b" 1);
  let loc = SL.Raw.locate sl "d" in
  (* Concurrent insert lands between prev and succ: the CAS must fail. *)
  ignore (SL.insert sl "c" 7);
  Alcotest.(check bool) "stale location rejected" false
    (SL.Raw.try_insert sl loc "d" 9);
  Alcotest.(check (option int)) "d not inserted" None (SL.find sl "d")

let raw_locate_exact_hits_prev () =
  let sl = SL.create ~seed:23 () in
  ignore (SL.insert sl "d" 4);
  let loc = SL.Raw.locate sl "d" in
  (* locate on an existing key: prev is the node itself (greatest <= key). *)
  Alcotest.(check (option string)) "prev is the key" (Some "d")
    (Option.map fst (SL.Raw.prev_binding loc))

let raw_concurrent_counter () =
  (* Emulates Algorithm 3: each domain repeatedly locates (k, +inf) for its
     slot, reads the newest version, and appends an incremented version; on
     CAS failure it retries. All increments must survive. *)
  let sl = SL.create () in
  let incr_key key =
    let rec attempt () =
      let probe = key ^ "\xff" in
      let loc = SL.Raw.locate sl probe in
      let current, next_version =
        match SL.Raw.prev_binding loc with
        | Some (k, v) when String.length k > String.length key
                           && String.sub k 0 (String.length key) = key ->
            (v, v + 1)
        | Some _ | None -> (0, 1)
      in
      let new_key = Printf.sprintf "%s%08d" key next_version in
      if not (SL.Raw.try_insert sl loc new_key next_version) then attempt ()
      else current + 1
    in
    ignore (attempt ())
  in
  let n = 1_500 in
  let worker () =
    for _ = 1 to n do incr_key "ctr-" done;
    0
  in
  ignore (spawn_all [ worker; worker; worker ]);
  (* The newest version must equal the total number of increments. *)
  let loc = SL.Raw.locate sl "ctr-\xff" in
  match SL.Raw.prev_binding loc with
  | Some (_, v) -> Alcotest.(check int) "no lost updates" (3 * n) v
  | None -> Alcotest.fail "counter missing"

let suites =
  [
    ( "skiplist.sequential",
      [
        Alcotest.test_case "empty behaviour" `Quick empty_behaviour;
        Alcotest.test_case "insert/find/duplicates" `Quick insert_find;
        Alcotest.test_case "ordered iteration" `Quick ordered_iteration;
        Alcotest.test_case "find_le/find_ge" `Quick find_le_ge;
        Alcotest.test_case "cursor" `Quick cursor_walk;
        Alcotest.test_case "fold/iter agree" `Quick fold_and_iter_agree;
      ] );
    ( "skiplist.props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_model_based; prop_find_le_matches_model;
          prop_raw_upsert_vs_model; prop_raw_upsert_concurrent;
        ] );
    ( "skiplist.concurrent",
      [
        Alcotest.test_case "disjoint inserts" `Quick concurrent_disjoint_inserts;
        Alcotest.test_case "racing same keys" `Quick concurrent_same_keys;
        Alcotest.test_case "weakly-consistent scan" `Quick
          weak_consistency_scan_during_inserts;
      ] );
    ( "skiplist.raw",
      [
        Alcotest.test_case "locate and insert" `Quick raw_locate_and_insert;
        Alcotest.test_case "stale location fails" `Quick raw_stale_location_fails;
        Alcotest.test_case "locate exact key" `Quick raw_locate_exact_hits_prev;
        Alcotest.test_case "concurrent RMW counter" `Quick raw_concurrent_counter;
      ] );
  ]
