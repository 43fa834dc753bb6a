open Clsm_wal

let tmp_dir = Test_dirs.dir "wal"

let tmp_path name = Filename.concat tmp_dir name

(* Per-write durability: every append is its own group-commit round. *)
let per_write = Wal_writer.Group { Wal_writer.max_batch = 1; max_delay_us = 0 }

let record_roundtrip () =
  let buf = Buffer.create 64 in
  let payloads = [ "first"; ""; "third record with some length" ] in
  List.iter (Wal_record.encode buf) payloads;
  let s = Buffer.contents buf in
  let rec collect pos acc =
    match Wal_record.decode s ~pos with
    | `Record (p, next) -> collect next (p :: acc)
    | `End -> List.rev acc
    | `Torn -> Alcotest.fail "unexpected torn record"
    | `Corrupt -> Alcotest.fail "unexpected corrupt record"
  in
  Alcotest.(check (list string)) "roundtrip" payloads (collect 0 [])

let record_detects_corruption () =
  let buf = Buffer.create 64 in
  Wal_record.encode buf "payload";
  let s = Bytes.of_string (Buffer.contents buf) in
  Bytes.set s (Wal_record.header_length + 2) 'X';
  match Wal_record.decode (Bytes.to_string s) ~pos:0 with
  | `Corrupt -> ()
  | `Torn -> Alcotest.fail "expected Corrupt, got Torn"
  | `Record _ | `End -> Alcotest.fail "expected Corrupt"

let writer_sync_roundtrip () =
  let path = tmp_path "sync.log" in
  let w = Wal_writer.create ~mode:per_write path in
  Wal_writer.append w "one";
  Wal_writer.append w "two";
  Wal_writer.close w;
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check (list string)) "records" [ "one"; "two" ] records;
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean)

let writer_async_flush () =
  let path = tmp_path "async.log" in
  let w = Wal_writer.create ~mode:Wal_writer.Async path in
  for i = 1 to 100 do
    Wal_writer.append w (Printf.sprintf "record-%03d" i)
  done;
  Wal_writer.flush w;
  Alcotest.(check int) "queue drained" 0 (Wal_writer.queued w);
  Wal_writer.close w;
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check int) "all records" 100 (List.length records);
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean);
  (* Single appender: order is preserved. *)
  Alcotest.(check (list string)) "order"
    (List.init 100 (fun i -> Printf.sprintf "record-%03d" (i + 1)))
    records

let writer_concurrent_appends () =
  let path = tmp_path "concurrent.log" in
  let w = Wal_writer.create ~mode:Wal_writer.Async path in
  let n = 2_000 in
  let producer tag () =
    for i = 0 to n - 1 do
      Wal_writer.append w (Printf.sprintf "%c%06d" tag i)
    done
  in
  List.map Domain.spawn [ producer 'a'; producer 'b'; producer 'c' ]
  |> List.iter Domain.join;
  Wal_writer.close w;
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean);
  Alcotest.(check int) "none lost" (3 * n) (List.length records);
  Alcotest.(check int) "all distinct" (3 * n)
    (List.length (List.sort_uniq String.compare records))

let torn_tail_recovery () =
  let path = tmp_path "torn.log" in
  let w = Wal_writer.create ~mode:per_write path in
  Wal_writer.append w "keep-1";
  Wal_writer.append w "keep-2";
  Wal_writer.append w "will-be-torn";
  Wal_writer.close w;
  (* Simulate a crash mid-write by truncating into the last record. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 4);
  Unix.close fd;
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check (list string)) "intact prefix" [ "keep-1"; "keep-2" ] records;
  Alcotest.(check bool) "torn" true (outcome = Wal_reader.Torn_tail)

let read_whole path = In_channel.with_open_bin path In_channel.input_all

let write_whole path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Strict mode turns the salvage of a truncated final record into a hard
   failure. *)
let torn_tail_strict_raises () =
  let path = tmp_path "torn_strict.log" in
  let w = Wal_writer.create ~mode:per_write path in
  Wal_writer.append w "keep-1";
  Wal_writer.append w "will-be-torn";
  Wal_writer.close w;
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 4);
  Unix.close fd;
  match Wal_reader.read_records ~strict:true path with
  | _ -> Alcotest.fail "expected Wal_reader.Corrupt"
  | exception Wal_reader.Corrupt _ -> ()

(* A bit flip inside a complete record fails its CRC: the valid prefix is
   salvaged and the outcome distinguishes corruption from tearing. *)
let bit_flip_corrupt_tail () =
  let path = tmp_path "bitflip.log" in
  let w = Wal_writer.create ~mode:per_write path in
  Wal_writer.append w "keep-1";
  Wal_writer.append w "keep-2";
  Wal_writer.append w "victim-payload";
  Wal_writer.close w;
  let contents = read_whole path in
  let idx =
    (* locate the last record's payload and flip one of its bytes *)
    let needle = "victim-payload" in
    let rec find i =
      if String.sub contents i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let b = Bytes.of_string contents in
  Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lxor 0x40));
  write_whole path (Bytes.to_string b);
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check (list string)) "prefix" [ "keep-1"; "keep-2" ] records;
  Alcotest.(check bool) "corrupt tail" true (outcome = Wal_reader.Corrupt_tail);
  (match Wal_reader.read_records ~strict:true path with
  | _ -> Alcotest.fail "strict must raise on corrupt tail"
  | exception Wal_reader.Corrupt _ -> ())

(* A zero-length file is what a crash right after WAL creation leaves:
   legal, clean, no records. *)
let zero_length_file () =
  let path = tmp_path "zero.log" in
  write_whole path "";
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check (list string)) "no records" [] records;
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean)

(* Garbage shorter than a record header after valid records reads as a
   torn (incomplete) trailer. *)
let garbage_trailer () =
  let path = tmp_path "garbage.log" in
  let w = Wal_writer.create ~mode:per_write path in
  Wal_writer.append w "keep-1";
  Wal_writer.append w "keep-2";
  Wal_writer.close w;
  write_whole path (read_whole path ^ "\xde\xad\xbe");
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check (list string)) "prefix" [ "keep-1"; "keep-2" ] records;
  Alcotest.(check bool) "torn" true (outcome = Wal_reader.Torn_tail)

let empty_log () =
  let path = tmp_path "empty.log" in
  let w = Wal_writer.create path in
  Wal_writer.close w;
  let records, outcome = Wal_reader.read_records path in
  Alcotest.(check (list string)) "no records" [] records;
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean)

(* ---------- group commit ---------- *)

module Faulty_env = Clsm_env.Faulty_env
module Env = Clsm_env.Env

let group ?(max_batch = 8) ?(max_delay_us = 0) () =
  Wal_writer.Group { Wal_writer.max_batch; max_delay_us }

(* Durability is immediate in group mode: no flush/close, the record must
   already be on disk when append returns — and [written_bytes] must
   bound a cleanly readable prefix (scrub's contract). *)
let group_append_is_durable () =
  let path = tmp_path "group_durable.log" in
  let w = Wal_writer.create ~mode:(group ()) path in
  Wal_writer.append w "one";
  Wal_writer.append w "two";
  let records, outcome =
    Wal_reader.read_records ~strict:true ~max_bytes:(Wal_writer.written_bytes w)
      path
  in
  Alcotest.(check (list string)) "durable before close" [ "one"; "two" ] records;
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean);
  Alcotest.(check int) "nothing pending" 0 (Wal_writer.queued w);
  Wal_writer.close w

let group_concurrent_appends () =
  let path = tmp_path "group_concurrent.log" in
  let w =
    Wal_writer.create ~mode:(group ~max_batch:4 ~max_delay_us:200 ()) path
  in
  let n = 500 in
  let producer tag () =
    for i = 0 to n - 1 do
      Wal_writer.append w (Printf.sprintf "%c%06d" tag i)
    done
  in
  List.map Domain.spawn [ producer 'a'; producer 'b'; producer 'c' ]
  |> List.iter Domain.join;
  Wal_writer.close w;
  let records, outcome = Wal_reader.read_records ~strict:true path in
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean);
  Alcotest.(check int) "none lost" (3 * n) (List.length records);
  Alcotest.(check int) "all distinct" (3 * n)
    (List.length (List.sort_uniq String.compare records));
  (* Per-producer order survives batching: a producer's records are its
     own commit order, whatever they were grouped with. *)
  List.iter
    (fun tag ->
      let mine = List.filter (fun r -> r.[0] = tag) records in
      Alcotest.(check (list string))
        (Printf.sprintf "order of %c" tag)
        (List.init n (fun i -> Printf.sprintf "%c%06d" tag i))
        mine)
    [ 'a'; 'b'; 'c' ]

(* The leader's accumulation window actually batches concurrent
   committers: with 4 writers parked behind a 100 ms window, the run must
   need fewer fsync rounds than records. The observer is the witness. *)
let group_batches_riders () =
  let path = tmp_path "group_batches.log" in
  let commits = Atomic.make 0 and committed = Atomic.make 0 in
  let observer =
    {
      Wal_writer.on_group_commit =
        (fun ~records ->
          Atomic.incr commits;
          ignore (Atomic.fetch_and_add committed records));
      on_commit_wait = (fun ~ns:_ -> ());
      on_window = (fun ~boarded:_ -> ());
    }
  in
  let w =
    Wal_writer.create
      ~mode:(group ~max_batch:8 ~max_delay_us:100_000 ())
      ~observer path
  in
  let writers = 4 in
  (* Start the appends together: a domain spawn can take longer than a
     commit round, and writers that arrive one by one never share one. *)
  let ready = Atomic.make 0 in
  let producer i () =
    Atomic.incr ready;
    while Atomic.get ready < writers do
      Domain.cpu_relax ()
    done;
    Wal_writer.append w (Printf.sprintf "w%d" i)
  in
  List.init writers (fun i -> Domain.spawn (producer i))
  |> List.iter Domain.join;
  Wal_writer.close w;
  Alcotest.(check int) "all committed" writers (Atomic.get committed);
  Alcotest.(check bool)
    (Printf.sprintf "batched (%d commits for %d records)" (Atomic.get commits)
       writers)
    true
    (Atomic.get commits < writers);
  let records, _ = Wal_reader.read_records ~strict:true path in
  Alcotest.(check int) "on disk" writers (List.length records)

(* [max_batch] bounds every single commit round. *)
let group_respects_max_batch () =
  let path = tmp_path "group_maxbatch.log" in
  let oversize = Atomic.make 0 in
  let observer =
    {
      Wal_writer.on_group_commit =
        (fun ~records -> if records > 2 then Atomic.incr oversize);
      on_commit_wait = (fun ~ns:_ -> ());
      on_window = (fun ~boarded:_ -> ());
    }
  in
  let w =
    Wal_writer.create
      ~mode:(group ~max_batch:2 ~max_delay_us:20_000 ())
      ~observer path
  in
  let producer tag () =
    for i = 0 to 19 do
      Wal_writer.append w (Printf.sprintf "%c%03d" tag i)
    done
  in
  List.map Domain.spawn [ producer 'a'; producer 'b'; producer 'c'; producer 'd' ]
  |> List.iter Domain.join;
  Wal_writer.close w;
  Alcotest.(check int) "no batch above max_batch" 0 (Atomic.get oversize);
  let records, _ = Wal_reader.read_records ~strict:true path in
  Alcotest.(check int) "none lost" 80 (List.length records)

(* Commit rounds and window outcomes, counted through the observer. *)
let counting_observer () =
  let rounds = Atomic.make 0
  and boarded = Atomic.make 0
  and expired = Atomic.make 0 in
  let observer =
    {
      Wal_writer.on_group_commit = (fun ~records:_ -> Atomic.incr rounds);
      on_commit_wait = (fun ~ns:_ -> ());
      on_window =
        (fun ~boarded:b -> Atomic.incr (if b then boarded else expired));
    }
  in
  (observer, rounds, boarded, expired)

(* Two closed-loop committers run for [n] and [n + extra] appends. *)
let closed_loop_pair w ~n ~extra =
  let producer tag count () =
    for i = 0 to count - 1 do
      Wal_writer.append w (Printf.sprintf "%c%04d" tag i)
    done
  in
  List.map Domain.spawn [ producer 'a' n; producer 'b' (n + extra) ]
  |> List.iter Domain.join

(* The window closes when the predicted rider boards, not at its
   deadline: with a 1 s window, two closed-loop committers would need
   ~100 s if every round waited it out. *)
let group_window_closes_on_boarding () =
  let path = tmp_path "group_early_close.log" in
  let observer, rounds, boarded, expired = counting_observer () in
  let w =
    Wal_writer.create
      ~mode:(group ~max_batch:8 ~max_delay_us:1_000_000 ())
      ~observer path
  in
  let t0 = Unix.gettimeofday () in
  closed_loop_pair w ~n:100 ~extra:0;
  let elapsed = Unix.gettimeofday () -. t0 in
  Wal_writer.close w;
  let mean = 200. /. float_of_int (Atomic.get rounds) in
  Alcotest.(check bool)
    (Printf.sprintf "200 appends in %.2f s (< 10 s)" elapsed)
    true (elapsed < 10.);
  Alcotest.(check bool)
    (Printf.sprintf "mean batch %.2f >= 1.5" mean)
    true (mean >= 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "windows boarded (%d boarded, %d expired)"
       (Atomic.get boarded) (Atomic.get expired))
    true
    (Atomic.get boarded > Atomic.get expired);
  let records, _ = Wal_reader.read_records ~strict:true path in
  Alcotest.(check int) "on disk" 200 (List.length records)

(* After one committer departs, the other pays a window only until a
   smaller batch lowers the prediction: at most 2 expire over its next
   50 appends, instead of one per append. *)
let group_window_adapts_to_departure () =
  let path = tmp_path "group_departure.log" in
  let observer, _, _, expired = counting_observer () in
  let delay_us = 200_000 in
  let w =
    Wal_writer.create
      ~mode:(group ~max_batch:8 ~max_delay_us:delay_us ())
      ~observer path
  in
  closed_loop_pair w ~n:50 ~extra:50;
  Wal_writer.close w;
  Alcotest.(check bool)
    (Printf.sprintf "%d windows expired (<= 2)" (Atomic.get expired))
    true
    (Atomic.get expired <= 2);
  let records, _ = Wal_reader.read_records ~strict:true path in
  Alcotest.(check int) "on disk" 150 (List.length records)

(* A store's [write_batch] appends holding the store lock exclusively,
   so no put can board its leader's window. Two closed-loop writers warm
   the prediction to a batch of two; they stop together, after a round
   that carried both, so the prediction stays warm. The batch that
   follows must commit without opening a window: one would park until
   the 0.5 s deadline and count as expired. *)
let store_batch_opens_no_window () =
  let open Clsm_core in
  let dir = tmp_path (Printf.sprintf "store_batch_window_%d" (Unix.getpid ())) in
  let base = Options.default ~dir in
  let db =
    Db.open_store
      {
        base with
        Options.wal_sync = `Group { Options.max_batch = 8; max_delay_us = 500_000 };
        scrub_interval = 0.0;
      }
  in
  let puts = Atomic.make 0 and stop = Atomic.make false in
  let writer tag () =
    let i = ref 0 in
    while not (Atomic.get stop) do
      Db.put db ~key:(Printf.sprintf "%c%06d" tag !i) ~value:"v";
      incr i;
      Atomic.incr puts
    done
  in
  let writers = List.map Domain.spawn [ writer 'a'; writer 'b' ] in
  while Atomic.get puts < 100 do
    Unix.sleepf 0.001
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  let before = (Db.stats db).Stats.wal_windows_expired in
  let t0 = Unix.gettimeofday () in
  Db.write_batch db [ Db.Batch_put ("batch", "v"); Db.Batch_delete "a000" ];
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "no window expired" before
    (Db.stats db).Stats.wal_windows_expired;
  Alcotest.(check bool)
    (Printf.sprintf "batch committed in %.3f s (< 0.25 s)" elapsed)
    true (elapsed < 0.25);
  Alcotest.(check (option string)) "batch durable and visible" (Some "v")
    (Db.get db "batch");
  Db.close db

(* [abandon] while a leader is parked in a 1 s window: the leader and its
   rider raise at once instead of riding out the window. A slow fsync
   makes the set-up deterministic:
   the first of three committers commits alone while the other two queue
   behind it, so the next round predicts three and parks waiting for a
   rider that never comes. *)
let group_abandon_parked_window () =
  let path = tmp_path "group_abandon_window.log" in
  let slow =
    {
      Env.unix with
      create_writer =
        (fun p ->
          let w = Env.unix.create_writer p in
          {
            w with
            w_fsync =
              (fun () ->
                Unix.sleepf 0.1;
                w.w_fsync ());
          });
    }
  in
  let observer, rounds, _, _ = counting_observer () in
  let w =
    Wal_writer.create
      ~mode:(group ~max_batch:8 ~max_delay_us:1_000_000 ())
      ~env:slow ~observer path
  in
  let writers = 3 in
  let ready = Atomic.make 0 in
  let outcome i () =
    Atomic.incr ready;
    while Atomic.get ready < writers do
      Domain.cpu_relax ()
    done;
    match Wal_writer.append w (Printf.sprintf "w%d" i) with
    | () -> `Acked
    | exception Env.Crashed -> `Crashed (Unix.gettimeofday ())
  in
  let domains = List.init writers (fun i -> Domain.spawn (outcome i)) in
  while Atomic.get rounds < 1 do
    Unix.sleepf 0.001
  done;
  (* past the first round's fsync: the next leader is in its window *)
  Unix.sleepf 0.1;
  let abandoned = Unix.gettimeofday () in
  Wal_writer.abandon w;
  let results = List.map Domain.join domains in
  let acked = List.filter (( = ) `Acked) results in
  Alcotest.(check int) "one committed before the window" 1 (List.length acked);
  List.iter
    (function
      | `Acked -> ()
      | `Crashed at ->
          Alcotest.(check bool)
            (Printf.sprintf "raised %.3f s after abandon" (at -. abandoned))
            true
            (at -. abandoned < 0.5))
    results;
  Alcotest.(check bool) "poisoned" true (Wal_writer.poisoned w)

(* Recovery's re-log path: [enqueue] acknowledges nothing and writes
   nothing until one [flush] makes the whole batch durable. *)
let group_enqueue_then_flush () =
  let path = tmp_path "group_enqueue.log" in
  let w = Wal_writer.create ~mode:(group ()) path in
  for i = 1 to 10 do
    Wal_writer.enqueue w (Printf.sprintf "re-log-%02d" i)
  done;
  Alcotest.(check int) "queued, not written" 10 (Wal_writer.queued w);
  Alcotest.(check int) "no bytes yet" 0 (Wal_writer.written_bytes w);
  Wal_writer.flush w;
  Alcotest.(check int) "drained" 0 (Wal_writer.queued w);
  Wal_writer.close w;
  let records, outcome = Wal_reader.read_records ~strict:true path in
  Alcotest.(check int) "all durable" 10 (List.length records);
  Alcotest.(check bool) "clean" true (outcome = Wal_reader.Clean)

(* A failed batch acknowledges nothing: every rider parked on the commit
   (not just the leader that hit the fault) must raise, the writer stays
   poisoned, and nothing hangs. *)
let group_poison_wakes_all_riders () =
  let path = tmp_path "group_poison.log" in
  let f = Faulty_env.create ~seed:11 ~fsync_fail_1_in:1 () in
  let w =
    Wal_writer.create
      ~mode:(group ~max_batch:8 ~max_delay_us:50_000 ())
      ~env:(Faulty_env.env f) path
  in
  let raised = Atomic.make 0 in
  let producer i () =
    match Wal_writer.append w (Printf.sprintf "r%d" i) with
    | () -> ()
    | exception Env.Error _ -> Atomic.incr raised
  in
  List.init 3 (fun i -> Domain.spawn (producer i)) |> List.iter Domain.join;
  Alcotest.(check int) "every rider raised" 3 (Atomic.get raised);
  Alcotest.(check bool) "poisoned" true (Wal_writer.poisoned w);
  (match Wal_writer.append w "after" with
  | () -> Alcotest.fail "poisoned writer must not acknowledge"
  | exception Env.Error _ -> ());
  Wal_writer.abandon w

(* Satellite regression: [flush] after fsync-gate poisoning is idempotent
   for concurrent flushers. The second flusher must re-raise the original
   poisoning exception without touching the queue or issuing any further
   IO — not observe a half-drained queue or retry over the gap. *)
let flush_idempotent_after_poison () =
  let path = tmp_path "flush_idempotent.log" in
  let f = Faulty_env.create ~seed:5 ~fsync_fail_1_in:1 () in
  let w = Wal_writer.create ~mode:Wal_writer.Async ~env:(Faulty_env.env f) path in
  (* Async appends opportunistically write (no fsync), so the records are
     in the file and the queue is empty when the first flush's fsync
     fails. *)
  for i = 1 to 5 do
    Wal_writer.append w (Printf.sprintf "a%d" i)
  done;
  let original =
    match Wal_writer.flush w with
    | () -> Alcotest.fail "expected fsync failure"
    | exception (Env.Error _ as e) -> Printexc.to_string e
  in
  Alcotest.(check bool) "poisoned" true (Wal_writer.poisoned w);
  let ops_after_poison = Faulty_env.mutating_ops f in
  let queued_after_poison = Wal_writer.queued w in
  (* The poison gate closes the queue too: nothing can be queued behind a
     failed fsync, so no later flusher can ever find half-drained work. *)
  (match Wal_writer.enqueue w "never-queued" with
  | () -> Alcotest.fail "poisoned writer must refuse enqueue"
  | exception Env.Error _ -> ());
  (* Concurrent second and third flushers: both must deterministically
     re-raise the original exception. *)
  let reraised = Atomic.make 0 in
  let flusher () =
    match Wal_writer.flush w with
    | () -> ()
    | exception (Env.Error _ as e) ->
        if Printexc.to_string e = original then Atomic.incr reraised
  in
  List.init 2 (fun _ -> Domain.spawn flusher) |> List.iter Domain.join;
  Alcotest.(check int) "both re-raise the original exception" 2
    (Atomic.get reraised);
  Alcotest.(check int) "no further IO attempted" ops_after_poison
    (Faulty_env.mutating_ops f);
  Alcotest.(check int) "queue untouched by poisoned flushes"
    queued_after_poison (Wal_writer.queued w);
  Wal_writer.abandon w

(* ---------- one commit path: a round parked inside its write ---------- *)

(* An env whose writers log their calls and whose [w_append] parks while
   [held] is set, so a test can hold a round inside its write. *)
type gate = {
  genv : Env.t;
  held : bool Atomic.t;
  parked : int Atomic.t;  (** appends that found [held] set *)
  log : string list Atomic.t;  (** calls, newest first *)
}

let gate () =
  let held = Atomic.make true
  and parked = Atomic.make 0
  and log = Atomic.make [] in
  let rec note e =
    let l = Atomic.get log in
    if not (Atomic.compare_and_set log l (e :: l)) then note e
  in
  let create_writer p =
    let w = Env.unix.create_writer p in
    {
      Env.w_append =
        (fun s ->
          if Atomic.get held then begin
            Atomic.incr parked;
            while Atomic.get held do
              Unix.sleepf 0.001
            done
          end;
          w.w_append s;
          note "append");
      w_fsync =
        (fun () ->
          w.w_fsync ();
          note "fsync");
      w_close =
        (fun () ->
          note "close";
          w.w_close ());
    }
  in
  { genv = { Env.unix with create_writer }; held; parked; log }

let calls g = List.rev (Atomic.get g.log)

(* An async writer whose first append is parked inside its round. *)
let parked_async_writer name =
  let g = gate () in
  let w =
    Wal_writer.create ~mode:Wal_writer.Async ~env:g.genv (tmp_path name)
  in
  let first = Domain.spawn (fun () -> Wal_writer.append w "first") in
  while Atomic.get g.parked < 1 do
    Unix.sleepf 0.001
  done;
  (g, w, first)

(* The call [f] issued while the round is parked has not returned 50 ms
   later; after the gate opens it has, and the log reads [expected]. *)
let check_waits_out_round g first what f ~expected =
  let returned = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        f ();
        Atomic.set returned true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) (what ^ " waits for the parked write") false
    (Atomic.get returned);
  Alcotest.(check (list string)) "nothing after the parked write" []
    (calls g);
  Atomic.set g.held false;
  Domain.join first;
  Domain.join d;
  Alcotest.(check (list string)) "calls in order" expected (calls g)

let async_append_never_waits () =
  let g, w, first = parked_async_writer "gate_append.log" in
  (match Watchdog.run ~within:2.0 (fun () -> Wal_writer.append w "second") with
  | Some (Ok ()) -> ()
  | Some (Error e) -> raise e
  | None -> Alcotest.fail "second append waited on the parked round");
  Alcotest.(check int) "first still parked" 0 (List.length (calls g));
  Atomic.set g.held false;
  Domain.join first;
  Wal_writer.close w;
  let records, _ = Wal_reader.read_records ~strict:true (Wal_writer.path w) in
  Alcotest.(check (list string)) "both, in order" [ "first"; "second" ] records

let flush_waits_out_round () =
  let g, w, first = parked_async_writer "gate_flush.log" in
  check_waits_out_round g first "flush"
    (fun () -> Wal_writer.flush w)
    ~expected:[ "append"; "fsync" ];
  let records, _ =
    Wal_reader.read_records ~strict:true ~max_bytes:(Wal_writer.written_bytes w)
      (Wal_writer.path w)
  in
  Alcotest.(check (list string)) "durable" [ "first" ] records;
  Wal_writer.close w

let abandon_waits_out_round () =
  let g, w, first = parked_async_writer "gate_abandon.log" in
  check_waits_out_round g first "abandon"
    (fun () -> Wal_writer.abandon w)
    ~expected:[ "append"; "close" ]

let close_waits_out_round () =
  let g, w, first = parked_async_writer "gate_close.log" in
  check_waits_out_round g first "close"
    (fun () -> Wal_writer.close w)
    ~expected:[ "append"; "fsync"; "close" ]

let prop_wal_roundtrip =
  QCheck.Test.make ~name:"wal roundtrip (random payloads)" ~count:50
    QCheck.(list (string_of_size Gen.(0 -- 100)))
    (fun payloads ->
      let path = tmp_path "prop.log" in
      let w = Wal_writer.create ~mode:per_write path in
      List.iter (Wal_writer.append w) payloads;
      Wal_writer.close w;
      let records, outcome = Wal_reader.read_records path in
      records = payloads && outcome = Wal_reader.Clean)

(* Satellite property: Group mode is crash-equivalent to Per_write mode.
   For any interleaving of appends and flushes and any crash point, the
   salvaged record sequence of each mode is a prefix of the issued
   sequence containing every acknowledged append (prefix-closed
   equivalence: each salvage is a prefix of the other's extension to the
   full issued list). Without a crash, both modes must produce strictly
   readable logs with identical contents. Wal_reader is used both ways:
   salvage (strict:false) on crash images, strict:true on clean logs and
   on the [written_bytes]-bounded durable prefix. *)
let prop_group_prefix_equivalent =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (1 -- 25) (string_size ~gen:printable (1 -- 12)))
        (list_size (0 -- 4) (0 -- 25))
        (0 -- 34))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"group salvage ≡ per-write salvage (prefix-closed)"
    ~count:40 arb (fun (payloads, flush_at, crash_budget) ->
      let is_prefix shorter longer =
        let rec go = function
          | [], _ -> true
          | x :: xs, y :: ys -> x = y && go (xs, ys)
          | _ :: _, [] -> false
        in
        go (shorter, longer)
      in
      (* Run the identical op sequence against one writer; returns
         (acked appends, file path, faulty handle, crashed). The crash
         budget counts the env's mutating ops, so the two modes crash at
         their own (different) protocol points — the property must hold
         at every one. [crash_budget] past the op count means no crash. *)
      let run_mode name mode =
        let path = tmp_path (Printf.sprintf "prop_group_%s.log" name) in
        (try Sys.remove path with Sys_error _ -> ());
        let f = Faulty_env.create ~seed:(Hashtbl.hash (payloads, name)) () in
        Faulty_env.arm f ~crash_after:(1 + crash_budget);
        let acked = ref [] and crashed = ref false in
        (match Wal_writer.create ~mode ~env:(Faulty_env.env f) path with
        | exception Env.Crashed -> crashed := true
        | w -> (
            try
              List.iteri
                (fun i payload ->
                  if List.mem i flush_at then Wal_writer.flush w;
                  Wal_writer.append w payload;
                  acked := payload :: !acked)
                payloads;
              Wal_writer.close w
            with Env.Crashed | Env.Error _ -> crashed := true));
        (List.rev !acked, path, f, !crashed)
      in
      let group_mode = group ~max_batch:3 ~max_delay_us:0 () in
      let acked_g, path_g, f_g, crashed_g = run_mode "g" group_mode in
      let acked_p, path_p, f_p, crashed_p = run_mode "p" per_write in
      let salvage ~crashed path f =
        if crashed then Faulty_env.install_crash_image f;
        if Sys.file_exists path then fst (Wal_reader.read_records path) else []
      in
      let salvaged_g = salvage ~crashed:crashed_g path_g f_g in
      let salvaged_p = salvage ~crashed:crashed_p path_p f_p in
      (* Both salvages are prefixes of the issued sequence... *)
      is_prefix salvaged_g payloads
      && is_prefix salvaged_p payloads
      (* ...so the shorter is a prefix of the longer (prefix-closed
         equivalence of the two modes)... *)
      && (is_prefix salvaged_g salvaged_p || is_prefix salvaged_p salvaged_g)
      (* ...and every acknowledged append survived in both. *)
      && is_prefix acked_g salvaged_g
      && is_prefix acked_p salvaged_p
      (* Clean runs: both modes wrote the full sequence, strictly
         readable. *)
      &&
      if crashed_g || crashed_p then true
      else
        let strict p = fst (Wal_reader.read_records ~strict:true p) in
        strict path_g = payloads && strict path_p = payloads)

let suites =
  [
    ( "wal",
      [
        Alcotest.test_case "record roundtrip" `Quick record_roundtrip;
        Alcotest.test_case "record corruption" `Quick record_detects_corruption;
        Alcotest.test_case "sync writer" `Quick writer_sync_roundtrip;
        Alcotest.test_case "async flush" `Quick writer_async_flush;
        Alcotest.test_case "concurrent appends" `Quick writer_concurrent_appends;
        Alcotest.test_case "torn tail recovery" `Quick torn_tail_recovery;
        Alcotest.test_case "torn tail strict" `Quick torn_tail_strict_raises;
        Alcotest.test_case "bit-flipped tail" `Quick bit_flip_corrupt_tail;
        Alcotest.test_case "zero-length file" `Quick zero_length_file;
        Alcotest.test_case "garbage trailer" `Quick garbage_trailer;
        Alcotest.test_case "empty log" `Quick empty_log;
        Alcotest.test_case "async append never waits" `Quick
          async_append_never_waits;
        Alcotest.test_case "flush waits out a parked round" `Quick
          flush_waits_out_round;
        Alcotest.test_case "abandon waits out a parked round" `Quick
          abandon_waits_out_round;
        Alcotest.test_case "close waits out a parked round" `Quick
          close_waits_out_round;
      ] );
    ( "wal.group",
      [
        Alcotest.test_case "append is durable" `Quick group_append_is_durable;
        Alcotest.test_case "concurrent appends" `Quick group_concurrent_appends;
        Alcotest.test_case "riders batch" `Quick group_batches_riders;
        Alcotest.test_case "max_batch bound" `Quick group_respects_max_batch;
        Alcotest.test_case "window closes on boarding" `Quick
          group_window_closes_on_boarding;
        Alcotest.test_case "window adapts to a departure" `Quick
          group_window_adapts_to_departure;
        Alcotest.test_case "abandon during a window" `Quick
          group_abandon_parked_window;
        Alcotest.test_case "enqueue then flush" `Quick group_enqueue_then_flush;
        Alcotest.test_case "poison wakes riders" `Quick
          group_poison_wakes_all_riders;
        Alcotest.test_case "flush idempotent after poison" `Quick
          flush_idempotent_after_poison;
        Alcotest.test_case "store batch opens no window" `Quick
          store_batch_opens_no_window;
      ] );
    ( "wal.props",
      List.map QCheck_alcotest.to_alcotest
        [ prop_wal_roundtrip; prop_group_prefix_equivalent ] );
  ]
