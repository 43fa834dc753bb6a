open Clsm_primitives

let spawn_all fns = List.map Domain.spawn fns |> List.map Domain.join

(* ---------- Shared_lock ---------- *)

let lock_basic () =
  let l = Shared_lock.create () in
  Alcotest.(check bool) "free" true (Shared_lock.holders l = `Free);
  Shared_lock.lock_shared l;
  Shared_lock.lock_shared l;
  Alcotest.(check bool) "two shared" true (Shared_lock.holders l = `Shared 2);
  Shared_lock.unlock_shared l;
  Shared_lock.unlock_shared l;
  Shared_lock.lock_exclusive l;
  Alcotest.(check bool) "exclusive" true (Shared_lock.holders l = `Exclusive);
  Shared_lock.unlock_exclusive l;
  Alcotest.(check bool) "free again" true (Shared_lock.holders l = `Free)

let lock_mutual_exclusion () =
  (* Exclusive sections must never overlap with each other or with shared
     sections: a plain (non-atomic) counter stays consistent iff exclusion
     holds. *)
  let l = Shared_lock.create () in
  let counter = ref 0 in
  let iterations = 5_000 in
  let writer () =
    for _ = 1 to iterations do
      Shared_lock.with_exclusive l (fun () ->
          let v = !counter in
          counter := v + 1)
    done
  in
  let reader () =
    let bad = ref 0 in
    for _ = 1 to iterations do
      Shared_lock.with_shared l (fun () ->
          let a = !counter in
          let b = !counter in
          if a <> b then incr bad)
    done;
    !bad
  in
  let results =
    spawn_all
      [
        (fun () -> writer (); 0);
        (fun () -> writer (); 0);
        (fun () -> reader ());
        (fun () -> reader ());
      ]
  in
  Alcotest.(check int) "counter" (2 * iterations) !counter;
  List.iter (fun bad -> Alcotest.(check int) "no torn read" 0 bad) results

let lock_writer_preference () =
  (* With an exclusive locker waiting, new shared acquisitions must hold
     back until it runs — the merge-starvation rule of §3.1. *)
  let l = Shared_lock.create () in
  Shared_lock.lock_shared l;
  let writer_acquired = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Shared_lock.lock_exclusive l;
        Atomic.set writer_acquired true;
        Shared_lock.unlock_exclusive l)
  in
  (* Give the writer time to enqueue, then try a shared acquisition from
     another domain: it must not complete before the writer does. *)
  let reader =
    Domain.spawn (fun () ->
        (* wait until the writer is visibly waiting *)
        let b = Backoff.create () in
        while Shared_lock.holders l <> `Shared 1 || Atomic.get writer_acquired do
          Backoff.once b
        done;
        Unix.sleepf 0.01;
        Shared_lock.lock_shared l;
        let writer_done = Atomic.get writer_acquired in
        Shared_lock.unlock_shared l;
        writer_done)
  in
  Unix.sleepf 0.05;
  Shared_lock.unlock_shared l;
  let reader_saw_writer_done = Domain.join reader in
  Domain.join writer;
  Alcotest.(check bool) "late reader ran after the waiting writer" true
    reader_saw_writer_done

let lock_exception_safety () =
  let l = Shared_lock.create () in
  (try Shared_lock.with_shared l (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check bool) "released after raise" true
    (Shared_lock.holders l = `Free);
  (try Shared_lock.with_exclusive l (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check bool) "released after raise (excl)" true
    (Shared_lock.holders l = `Free)

(* ---------- Monotonic_counter ---------- *)

let counter_concurrent_unique () =
  let c = Monotonic_counter.create 0 in
  let per_domain = 10_000 in
  let grab () =
    let acc = ref [] in
    for _ = 1 to per_domain do
      acc := Monotonic_counter.inc_and_get c :: !acc
    done;
    !acc
  in
  let all = spawn_all [ grab; grab; grab ] |> List.concat in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "all distinct" (3 * per_domain) (List.length sorted);
  Alcotest.(check int) "final value" (3 * per_domain) (Monotonic_counter.get c)

let counter_advance_to () =
  let c = Monotonic_counter.create 5 in
  Alcotest.(check int) "advance up" 10 (Monotonic_counter.advance_to c 10);
  Alcotest.(check int) "no backward" 10 (Monotonic_counter.advance_to c 3);
  Alcotest.(check int) "get" 10 (Monotonic_counter.get c)

(* ---------- Active_set ---------- *)

let active_set_basic () =
  let s = Active_set.create ~capacity:8 () in
  Alcotest.(check (option int)) "empty min" None (Active_set.find_min s);
  let h5 = Active_set.add s 5 in
  let _h3 = Active_set.add s 3 in
  let _h9 = Active_set.add s 9 in
  Alcotest.(check (option int)) "min 3" (Some 3) (Active_set.find_min s);
  Alcotest.(check bool) "mem 5" true (Active_set.mem s 5);
  Active_set.remove s h5;
  Alcotest.(check bool) "removed 5" false (Active_set.mem s 5);
  Alcotest.(check bool) "remove_value 3" true (Active_set.remove_value s 3);
  Alcotest.(check (option int)) "min 9" (Some 9) (Active_set.find_min s);
  Alcotest.(check int) "cardinal" 1 (Active_set.cardinal s);
  Alcotest.(check bool) "remove_value missing" false
    (Active_set.remove_value s 3)

let active_set_stress () =
  (* Concurrent add/remove; the set must end empty and find_min must never
     return a timestamp below one that is still published. *)
  let s = Active_set.create ~capacity:64 () in
  let worker seed () =
    let bad = ref 0 in
    for i = 1 to 2_000 do
      let ts = (seed * 100_000) + i in
      let h = Active_set.add s ts in
      (match Active_set.find_min s with
      | Some m when m > ts -> incr bad
      | Some _ | None -> ());
      Active_set.remove s h
    done;
    !bad
  in
  let bads = spawn_all [ worker 1; worker 2; worker 3; worker 4 ] in
  List.iter (fun b -> Alcotest.(check int) "min bound respected" 0 b) bads;
  Alcotest.(check int) "empty at end" 0 (Active_set.cardinal s)

let active_set_fills_and_drains () =
  let s = Active_set.create ~capacity:4 () in
  let hs = List.map (Active_set.add s) [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "full" 4 (Active_set.cardinal s);
  List.iter (Active_set.remove s) hs;
  Alcotest.(check int) "drained" 0 (Active_set.cardinal s)

(* Homes are leased per domain and returned when it exits: 300 domains
   run one after another reuse one home, so the scan width stays at the
   main domain's home and theirs. *)
let active_set_lease_reuse () =
  let s = Active_set.create () in
  Active_set.remove s (Active_set.add s 1);
  for i = 1 to 300 do
    Domain.join
      (Domain.spawn (fun () -> Active_set.remove s (Active_set.add s (i + 1))))
  done;
  Alcotest.(check bool) "span <= 2" true (Active_set.span s <= 2);
  Alcotest.(check int) "empty" 0 (Active_set.cardinal s)

(* ---------- Refcounted / Rcu_box ---------- *)

let refcount_release_once () =
  let released = ref 0 in
  let cell = Refcounted.create ~release:(fun _ -> incr released) 42 in
  Alcotest.(check int) "initial count" 1 (Refcounted.count cell);
  Alcotest.(check bool) "incr ok" true (Refcounted.try_incr cell);
  Refcounted.decr cell;
  Alcotest.(check int) "not yet released" 0 !released;
  Refcounted.retire cell;
  Alcotest.(check int) "released once" 1 !released;
  Alcotest.(check bool) "incr after release fails" false
    (Refcounted.try_incr cell)

let rcu_swap_under_readers () =
  (* Readers must never observe a released component (the paper's RCU-like
     pointer protocol, §3.1). *)
  let make v = Refcounted.create ~release:(fun r -> r := -1) (ref v) in
  let box = Rcu_box.create (make 0) in
  let stop = Atomic.make false in
  let reader () =
    let bad = ref 0 in
    while not (Atomic.get stop) do
      let cell = Rcu_box.acquire box in
      if !(Refcounted.value cell) < 0 then incr bad;
      Refcounted.decr cell
    done;
    !bad
  in
  let writer () =
    for i = 1 to 2_000 do
      let old = Rcu_box.swap box (make i) in
      Refcounted.retire old
    done;
    Atomic.set stop true;
    0
  in
  let results = spawn_all [ reader; reader; writer ] in
  List.iter (fun bad -> Alcotest.(check int) "no released read" 0 bad) results

let rcu_with_ref () =
  let box = Rcu_box.create (Refcounted.create ~release:ignore "hello") in
  Alcotest.(check string) "with_ref" "hello" (Rcu_box.with_ref box Fun.id);
  let cur = Rcu_box.peek box in
  Alcotest.(check int) "count back to 1" 1 (Refcounted.count cur)

(* A cell retired in place (what [close] does to the store's [Pd]) has
   left no successor to retry on: [acquire] must raise, not spin. *)
let rcu_retired_in_place_raises () =
  let box = Rcu_box.create (Refcounted.create ~release:ignore "gone") in
  Refcounted.retire (Rcu_box.peek box);
  match Watchdog.run ~within:2.0 (fun () -> Rcu_box.acquire box) with
  | Some (Error Rcu_box.Closed) -> ()
  | Some (Error e) -> Alcotest.failf "raised %s, not Closed" (Printexc.to_string e)
  | Some (Ok _) -> Alcotest.fail "acquired a retired cell"
  | None -> Alcotest.fail "acquire still spinning 2 s later"

(* ---------- Event_buffer ---------- *)

let event_buffer_order () =
  let b = Event_buffer.create () in
  let n = 3_000 (* crosses chunk boundaries *) in
  for i = 0 to n - 1 do Event_buffer.push b i done;
  Alcotest.(check int) "length" n (Event_buffer.length b);
  Alcotest.(check (list int)) "order preserved" (List.init n Fun.id)
    (Event_buffer.to_list b)

let event_buffer_concurrent_reader () =
  (* A reader must always observe a prefix 0..k-1 of the writer's appends,
     never a torn or reordered view. *)
  let b = Event_buffer.create () in
  let n = 10_000 in
  let writer () =
    for i = 0 to n - 1 do Event_buffer.push b i done;
    0
  in
  let reader () =
    let bad = ref 0 in
    while Event_buffer.length b < n do
      let expect = ref 0 in
      Event_buffer.iter
        (fun v ->
          if v <> !expect then incr bad;
          incr expect)
        b
    done;
    !bad
  in
  let results = spawn_all [ writer; reader; reader ] in
  List.iter (fun bad -> Alcotest.(check int) "prefix snapshots" 0 bad) results

(* ---------- qcheck model properties under 2-4 domains ---------- *)

(* Active_set vs a multiset model: each domain publishes its script's
   timestamps (offset into a private range), immediately unpublishing the
   ones not marked [keep]; the survivors must be exactly what the model
   predicts, and [find_min]/[cardinal] must agree with it. *)
let prop_active_set_model =
  let gen =
    QCheck.(
      pair (int_range 2 4)
        (list_of_size Gen.(1 -- 25) (pair (int_range 1 50_000) bool)))
  in
  QCheck.Test.make ~name:"active_set multiset model (2-4 domains)" ~count:10
    gen (fun (domains, script) ->
      let s = Active_set.create ~capacity:256 () in
      let worker d () =
        List.iter
          (fun (ts, keep) ->
            let h = Active_set.add s ((d * 1_000_000) + ts) in
            if not keep then Active_set.remove s h)
          script;
        0
      in
      ignore (spawn_all (List.init domains (fun d -> worker (d + 1))));
      let expected =
        List.concat
          (List.init domains (fun d ->
               List.filter_map
                 (fun (ts, keep) ->
                   if keep then Some (((d + 1) * 1_000_000) + ts) else None)
                 script))
        |> List.sort Int.compare
      in
      Active_set.values s = expected
      && Active_set.cardinal s = List.length expected
      && Active_set.find_min s
         = (match expected with [] -> None | m :: _ -> Some m))

type counter_op = Inc | Advance of int

(* Monotonic_counter under concurrent inc_and_get / advance_to: per-domain
   observations never go backwards, and the final value sits inside the
   model bounds (every inc adds exactly one; every advance raises the
   counter to at least its target and by at most max(0, target-initial)). *)
let prop_counter_model =
  let gen =
    QCheck.(
      triple (int_range 2 4) (int_range 0 100)
        (list_of_size Gen.(1 -- 30)
           (map
              (function None -> Inc | Some t -> Advance t)
              (option (int_range 0 5_000)))))
  in
  QCheck.Test.make ~name:"monotonic_counter CAS-max model (2-4 domains)"
    ~count:10 gen (fun (domains, initial, script) ->
      let c = Monotonic_counter.create initial in
      let worker () =
        let monotone = ref true in
        let last = ref min_int in
        List.iter
          (fun op ->
            let v =
              match op with
              | Inc -> Monotonic_counter.inc_and_get c
              | Advance t -> Monotonic_counter.advance_to c t
            in
            if v < !last then monotone := false;
            last := v)
          script;
        if !monotone then 1 else 0
      in
      let oks = spawn_all (List.init domains (fun _ -> worker)) in
      let incs =
        List.length (List.filter (function Inc -> true | _ -> false) script)
      in
      let advances =
        List.filter_map (function Advance t -> Some t | Inc -> None) script
      in
      let max_target = List.fold_left max 0 advances in
      let slack =
        domains
        * List.fold_left (fun acc t -> acc + max 0 (t - initial)) 0 advances
      in
      let final = Monotonic_counter.get c in
      List.for_all (fun ok -> ok = 1) oks
      && final >= initial + (domains * incs)
      && final >= max_target
      && final <= initial + (domains * incs) + slack)

(* ---------- Backoff ---------- *)

let backoff_progresses () =
  (* past the cap: the budget stops doubling, and each round still
     returns *)
  let b = Backoff.create () in
  for _ = 1 to 16 do Backoff.once b done

let suites =
  [
    ( "primitives.shared_lock",
      [
        Alcotest.test_case "basic transitions" `Quick lock_basic;
        Alcotest.test_case "mutual exclusion" `Quick lock_mutual_exclusion;
        Alcotest.test_case "writer preference" `Quick lock_writer_preference;
        Alcotest.test_case "exception safety" `Quick lock_exception_safety;
      ] );
    ( "primitives.counter",
      [
        Alcotest.test_case "concurrent unique" `Quick counter_concurrent_unique;
        Alcotest.test_case "advance_to monotone" `Quick counter_advance_to;
      ] );
    ( "primitives.active_set",
      [
        Alcotest.test_case "basic" `Quick active_set_basic;
        Alcotest.test_case "concurrent stress" `Quick active_set_stress;
        Alcotest.test_case "fill and drain" `Quick active_set_fills_and_drains;
        Alcotest.test_case "lease reuse" `Quick active_set_lease_reuse;
      ] );
    ( "primitives.event_buffer",
      [
        Alcotest.test_case "order across chunks" `Quick event_buffer_order;
        Alcotest.test_case "concurrent reader sees prefix" `Quick
          event_buffer_concurrent_reader;
      ] );
    ( "primitives.props",
      List.map QCheck_alcotest.to_alcotest
        [ prop_active_set_model; prop_counter_model ] );
    ( "primitives.rcu",
      [
        Alcotest.test_case "release exactly once" `Quick refcount_release_once;
        Alcotest.test_case "swap under readers" `Quick rcu_swap_under_readers;
        Alcotest.test_case "with_ref" `Quick rcu_with_ref;
        Alcotest.test_case "retired in place raises" `Quick
          rcu_retired_in_place_raises;
        Alcotest.test_case "backoff" `Quick backoff_progresses;
      ] );
  ]
