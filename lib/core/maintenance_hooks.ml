(* The merge hooks (paper Algorithm 1, beforeMerge/afterMerge) and the
   job layer the maintenance scheduler drives. Expensive work — merging
   sorted runs to disk — happens outside any lock, so a flush and
   several compactions on disjoint level ranges proceed in parallel
   across worker domains. Every change to the disk component is then
   installed by one primitive, [commit_edit], which holds the exclusive
   sections the paper requires and states the crash ordering once. *)

open Clsm_primitives
open Clsm_lsm
module Time_ns = Clsm_util.Time_ns
module Job = Clsm_maintenance.Job
module Scheduler = Clsm_maintenance.Scheduler
module Env = Clsm_env.Env
open Store_state

let src = Logs.Src.create "clsm.db.maintenance" ~doc:"cLSM store maintenance"

module Log = (val Logs.src_log src : Logs.LOG)
module Retry = Clsm_env.Retry_policy

(* Maintenance-path IO commit points run under the configured retry
   policy: a transient fault (EINTR-ish fsync hiccup, brief ENOSPC)
   rides through a few backed-off attempts instead of degrading the
   store on first touch. Only [Env.Error] is retried — [Env.Crashed]
   is the test harness's kill switch and corruption is never
   transient. *)
let with_retry t ~what f =
  Retry.run t.opts.Options.retry
    ~on_retry:(fun ~attempt ~delay e ->
      Stats.incr t.stats Stats.io_retries;
      Log.warn (fun m ->
          m "%s failed (attempt %d), retrying in %.1fms: %s" what attempt
            (delay *. 1e3) (Printexc.to_string e)))
    f

(* An environment failure inside maintenance (failed fsync, out of
   space) that survives the retry policy must not take down the worker
   domain or be retried forever: the store degrades to read-only —
   reads keep working off the installed components — and the error is
   surfaced through [health] and the [Degraded] exception on writes.

   A corruption verdict is different: the media lied, but only about
   one table. Queueing it for re-verification keeps the store writable;
   degrading would punish every key for one rotten block. *)
let guard_io t ~what f =
  try f () with
  | (Env.Error _ | Env.Crashed) as e ->
      degrade t (what ^ " failed: " ^ Printexc.to_string e);
      Log.err (fun m ->
          m "%s failed, store degraded to read-only: %s" what
            (Printexc.to_string e))
  | Table_file.Corruption { number; detail; _ } ->
      ignore (enqueue_suspect t ~number ~detail : bool);
      Log.err (fun m ->
          m "%s hit corrupt table %06d (%s): re-verification queued" what
            number detail)

(* ---------- the install step ---------- *)

(* Set a discarded table aside as evidence: renamed, never deleted (a
   pinned reader may still read it through its open handle, and its
   release closes without unlinking, since it is not obsolete). *)
let set_aside t tf =
  let path = Clsm_sstable.Table.path tf.Table_file.table in
  (try Env.(t.opts.Options.env.rename) ~src:path ~dst:(path ^ ".quarantined")
   with Env.Error _ -> ());
  Stats.incr t.stats Stats.quarantined_tables;
  Log.warn (fun m ->
      m "table %06d discarded, set aside as %s.quarantined" tf.Table_file.number
        (Filename.basename path))

(* Commit one version edit — the paper's afterMerge exclusive section
   (Algorithm 1, §3.1) and the only place that swaps [pd] or saves the
   manifest. The crash-ordering invariant, stated once:

   1. under [install] (commits serialize; [pd] cannot move meanwhile),
      on a store not yet [Closed] — [close] sets that under [install]
      after its own final commit, and a later commit raises [Closed]
      before it touches [pd],
   2. swap [pd] (and, for a flush, empty P'm) under the exclusive lock,
      then signal [changed]: a stalled writer waits for the swap, not
      for the manifest fsync;
   3. save the manifest (retried) — a crash now recovers the new version;
   4. only then let go of the removed tables: a merged input is marked
      obsolete (deleted once its last pin drops); a table a discard
      ([`Quarantine]) removes is set aside instead, so a crash between
      the save and the rename leaves an orphan [.sst] that recovery
      collects (the evidence is lost, no data); a moved table (one the
      edit both removes and adds: a compaction that relinked it a level
      deeper) is live in the new version, so it is neither;
   5. retire the replaced cells.

   Added files arrive with one owning reference each, which is dropped
   here once the new version holds its own; a mover takes that extra
   reference on the cell it re-adds. A moved table that left the
   version since the edit was built (a discard took it) is not
   re-added. An edit that changes no file swaps nothing. A failed save
   propagates with nothing let go. Callers hold no lock. *)
let commit_edit t ~kind (edit : Version_edit.t) =
  let started = Time_ns.now_ns () in
  Mutex.lock t.install;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.install)
    (fun () ->
      if Atomic.get t.state == Closed then raise Store_sig.Closed;
      let cur = current_version t in
      let number f = (Refcounted.value f).Table_file.number in
      let moved f = List.mem (number f) edit.removed in
      let replaced =
        if edit.removed = [] && edit.added = [] && kind <> `Flush then []
        else begin
          let next =
            Version.apply cur
              {
                edit with
                added =
                  List.filter
                    (fun (_, f) ->
                      (not (moved f)) || Version.find_file cur (number f) <> None)
                    edit.added;
              }
          in
          let next = Refcounted.create ~release:Version.release next in
          Shared_lock.lock_exclusive t.lock;
          let old_pd = Rcu_box.swap t.pd next in
          if kind = `Flush then Atomic.set t.pimm No_imm;
          Shared_lock.unlock_exclusive t.lock;
          changed t;
          List.iter (fun (_, f) -> Refcounted.retire f) edit.added;
          [ old_pd ]
        end
      in
      let manifest_bytes =
        Fun.protect
          ~finally:(fun () -> List.iter Refcounted.retire replaced)
          (fun () ->
            let bytes =
              with_retry t ~what:"manifest save" (fun () -> save_manifest t)
            in
            List.iter
              (fun n ->
                if not (List.exists (fun (_, f) -> number f = n) edit.added)
                then
                  Option.iter
                    (fun f ->
                      let tf = Refcounted.value f in
                      if kind = `Quarantine then set_aside t tf
                      else Table_file.mark_obsolete tf)
                    (Version.find_file cur n))
              edit.removed;
            bytes)
      in
      Stats.record_install t.stats ~kind ~manifest_bytes
        ~ns:(Time_ns.now_ns () - started))
[@@excludes_locks]

(* ---------- merge hooks ---------- *)

(* beforeMerge: freeze Cm as C'm and open a fresh Cm (Algorithm 1 lines
   8-12). Returns false when a previous immutable component is still being
   merged. Caller holds the flush claim. *)
let rotate t =
  match current_imm t with
  | Imm _ -> false
  | No_imm ->
      if Memtable.is_empty (current_pm t).mem then false
      else begin
        let wal_number = alloc_file_number t () in
        let wal =
          if t.opts.Options.wal_enabled then
            Some
              (with_retry t ~what:"WAL create" (fun () ->
                   Clsm_wal.Wal_writer.create
                     ~mode:(Options.wal_mode t.opts)
                     ~observer:(Stats.wal_observer t.stats)
                     ~env:t.opts.Options.env
                     (Table_file.wal_path ~dir:t.opts.Options.dir wal_number)))
          else None
        in
        let fresh = { mem = Memtable.create (); wal; wal_number } in
        Shared_lock.lock_exclusive t.lock;
        (* On a shared clock another store may still hold an older
           timestamp in flight; freezing only what is older than every
           in-flight write keeps it visible to every later snapshot. *)
        Clock.await_older_writes t.clock;
        (* P'm <- Pm, then Pm <- new: readers traversing Pm then P'm may see
           the old component twice but can never miss it. *)
        Atomic.set t.pimm (Imm (Atomic.get t.pm));
        Atomic.set t.pm fresh;
        Shared_lock.unlock_exclusive t.lock;
        Stats.incr t.stats Stats.memtable_rotations;
        true
      end

(* Merge C'm into the disk component, then afterMerge: install the new
   version and clear P'm (Algorithm 1 lines 13-17). Caller holds the
   flush claim. *)
let flush_imm t =
  match current_imm t with
  | No_imm -> false
  | Imm mc ->
      let snapshots = Clock.live_snapshots t.clock ~now:(Time_ns.now_s ()) in
      (* Safe to retry wholesale: a failed attempt cleans up its partial
         outputs (Compaction.cleanup_failed), so each retry starts from
         a blank slate. *)
      let outputs =
        with_retry t ~what:"memtable flush write" (fun () ->
            Compaction.write_sorted_run ~cfg:t.opts.Options.lsm
              ~dir:t.opts.Options.dir ~cache:t.cache ~env:t.opts.Options.env
              ~alloc_number:(alloc_file_number t) ~snapshots
              ~drop_tombstones:false (Memtable.iter mc.mem))
      in
      let bytes = Version.file_bytes outputs in
      commit_edit t ~kind:`Flush
        {
          Version_edit.empty with
          added = List.map (fun f -> (0, f)) outputs;
        };
      Stats.incr t.stats Stats.flushes;
      Stats.add t.stats Stats.bytes_flushed bytes;
      (match mc.wal with
      | Some w ->
          let env = t.opts.Options.env in
          (* The manifest no longer references this log: failure to close
             or delete it only leaves an orphan that the next recovery
             collects, so it must not degrade or kill the worker. *)
          (try Clsm_wal.Wal_writer.close w
           with Env.Error _ | Env.Crashed -> ());
          (try Env.(env.remove) (Clsm_wal.Wal_writer.path w)
           with Env.Error _ | Env.Crashed -> ())
      | None -> ());
      Log.debug (fun m ->
          m "flushed %d bytes into %d L0 file(s)" bytes (List.length outputs));
      true

(* Run one claimed compaction: merge outside any lock, then install; or,
   when the inputs overlap nothing at the target level, install them
   there as a move (DESIGN §10). Caller owns the claim on the task's
   level range, and [pinned] keeps the inputs alive. *)
let run_claimed_compaction t { Store_state.task; pinned } =
  let cfg = t.opts.Options.lsm in
  let inputs_lo = task.Compaction.inputs_lo in
  let bytes = Version.file_bytes (inputs_lo @ task.Compaction.inputs_hi) in
  (if Compaction.is_trivial_move ~cfg (Refcounted.value pinned) task then begin
     (* [commit_edit] retires one reference per added file *)
     List.iter
       (fun f ->
         let ok = Refcounted.try_incr f in
         assert ok)
       inputs_lo;
     commit_edit t ~kind:`Compaction
       (Compaction.edit_of_task task ~outputs:inputs_lo);
     Stats.incr t.stats Stats.compaction_moves;
     Stats.add t.stats Stats.bytes_moved bytes;
     Log.debug (fun m ->
         m "moved %d file(s) (%d bytes) from level %d to %d"
           (List.length inputs_lo) bytes task.Compaction.src_level
           task.Compaction.target_level)
   end
   else begin
     let snapshots = Clock.live_snapshots t.clock ~now:(Time_ns.now_s ()) in
     let started = Time_ns.now_ns () in
     (* The expensive merge, on this worker: its output list is installed
        below as one edit, so a crash observes all of it or none of it. *)
     let outputs =
       with_retry t ~what:"compaction merge" (fun () ->
           Compaction.run ~cfg ~dir:t.opts.Options.dir ~cache:t.cache
             ~env:t.opts.Options.env ~alloc_number:(alloc_file_number t)
             ~snapshots task)
     in
     let merge_duration_ns = Time_ns.now_ns () - started in
     commit_edit t ~kind:`Compaction (Compaction.edit_of_task task ~outputs);
     Stats.record_compaction t.stats ~src_level:task.Compaction.src_level;
     Stats.add t.stats Stats.compaction_ns merge_duration_ns;
     Stats.add t.stats Stats.bytes_compacted bytes;
     Log.debug (fun m ->
         m "compacted level %d (%d bytes) into %d file(s)"
           task.Compaction.src_level bytes (List.length outputs))
   end);
  if task.Compaction.src_level >= 1 then
    match Version.files_range inputs_lo with
    | Some (_, largest) ->
        t.compact_pointers.(task.Compaction.src_level - 1) <- largest
    | None -> ()

(* ---------- claims ---------- *)

let flush_needed t =
  (match current_imm t with Imm _ -> true | No_imm -> false)
  || Memtable.approximate_bytes (current_pm t).mem
     > t.opts.Options.memtable_bytes

let set_claimed c tag v =
  match tag with
  | `Flush -> c.flush_claimed <- v
  | `Repair -> c.repair_claimed <- v
  | `Scrub -> c.scrub_claimed <- v
[@@requires_lock cm]

(* Take a single-instance job slot; [false] when someone holds it. *)
let claim_locked c tag =
  let held =
    match tag with
    | `Flush -> c.flush_claimed
    | `Repair -> c.repair_claimed
    | `Scrub -> c.scrub_claimed
  in
  if not held then set_claimed c tag true;
  not held
[@@requires_lock cm]

let claim t tag = Mutex.protect t.claims.cm (fun () -> claim_locked t.claims tag)

(* Every release signals after dropping [cm], so the wakeup mutex is
   never taken under it. *)
let release t tag =
  let c = t.claims in
  Mutex.protect c.cm (fun () -> set_claimed c tag false);
  changed t

(* The one way to wait on the claims ledger. [attempt] takes [cm]
   itself and answers [Some] once what the caller waits for is
   available. The generation is read before each attempt, so a
   release that lands between a failed attempt and the wait makes
   the wait return at once: a waiter wakes when the holder releases,
   with no poll tick and no lost wakeup. On a [Closed] store nothing
   is ever released again (its flush claim is [close]'s for good), so
   the waiter raises [Closed] instead. *)
let await_release t attempt =
  let c = t.claims in
  let rec go () =
    let seen = Wakeup.current c.released in
    match attempt () with
    | Some x -> x
    | None ->
        if Atomic.get t.state == Closed then raise Store_sig.Closed;
        ignore (Wakeup.wait c.released ~seen : int);
        go ()
  in
  go ()
[@@excludes_locks]

let claim_blocking t tag =
  await_release t (fun () -> if claim t tag then Some () else None)
[@@excludes_locks]

(* Pick and claim a compaction whose level range is disjoint from every
   in-flight one and whose inputs hold no suspect table: merging a
   suspect would fail again on the same block, so its level range
   waits for repair to settle the verdict while the deeper ones go on.
   The version the task was picked from is pinned so its input files
   cannot be released before the task runs. *)
let claim_compaction_locked t =
  let c = t.claims in
  let busy l = List.exists (fun (s, tg) -> l = s || l = tg) c.busy_levels in
  let suspects = Mutex.protect t.heal.hm (fun () -> List.map fst t.heal.suspects) in
  let suspect f = List.mem (Refcounted.value f).Table_file.number suspects in
  let cell = Rcu_box.acquire t.pd in
  let rec pick held =
    match
      Compaction.pick ~cfg:t.opts.Options.lsm
        ~level_pointers:t.compact_pointers
        ~skip:(fun ~src ~target -> busy src || busy target || List.mem src held)
        (Refcounted.value cell)
    with
    | Some task
      when List.exists suspect task.Compaction.inputs_lo
           || List.exists suspect task.Compaction.inputs_hi ->
        pick (task.Compaction.src_level :: held)
    | picked -> picked
  in
  match pick [] with
  | Some task ->
      let range = (task.Compaction.src_level, task.Compaction.target_level) in
      c.busy_levels <- range :: c.busy_levels;
      c.pending <- (range, { Store_state.task; pinned = cell }) :: c.pending;
      Some
        (Job.Compact
           {
             src_level = task.Compaction.src_level;
             target_level = task.Compaction.target_level;
           })
  | None ->
      Refcounted.decr cell;
      None
[@@requires_lock cm]

let release_compaction t range =
  let c = t.claims in
  Mutex.protect c.cm (fun () ->
      c.busy_levels <- List.filter (fun r -> r <> range) c.busy_levels);
  changed t

let take_pending t range =
  let c = t.claims in
  Mutex.protect c.cm (fun () ->
      match List.assoc_opt range c.pending with
      | Some cc ->
          c.pending <- List.remove_assoc range c.pending;
          Some cc
      | None -> None)

(* ---------- self-healing: verdicts, scrub, repair ---------- *)

(* One scrub slice: re-verify up to [budget] blocks (checksums plus
   structural decode, bypassing the block cache) starting from the
   pass cursor; corrupt tables are queued as suspects and the pass
   continues with the next file. When the file set is exhausted
   the active WAL tail is checked too and the pass closes, scheduling
   the next one [scrub_interval] later. Returns the problems found.
   Caller holds the scrub claim. *)
let scrub_slice t ~budget =
  let h = t.heal in
  let problems = ref [] in
  let cell = Rcu_box.acquire t.pd in
  Fun.protect
    ~finally:(fun () -> Refcounted.decr cell)
    (fun () ->
      let v = Refcounted.value cell in
      let files =
        Version.files_by_level v
        |> List.map (fun (_, f) -> Refcounted.value f)
        |> List.sort (fun a b ->
               Int.compare a.Table_file.number b.Table_file.number)
      in
      let resume_file, resume_block =
        Mutex.protect h.hm (fun () ->
            match h.scrub_cursor with Some c -> c | None -> (min_int, 0))
      in
      let used = ref 0 in
      let cursor = ref None in
      (try
         List.iter
           (fun tf ->
             let number = tf.Table_file.number in
             (* Files below the cursor were verified earlier this pass
                (or compacted away, which also re-verified them). *)
             if number >= resume_file then begin
               let rec step from_block =
                 if !used >= budget then begin
                   cursor := Some (number, from_block);
                   raise Exit
                 end;
                 match
                   Clsm_sstable.Table.scrub ~from_block
                     ~max_blocks:(budget - !used) tf.Table_file.table
                 with
                 | Ok { Clsm_sstable.Table.blocks_checked; next_block } -> (
                     used := !used + blocks_checked;
                     Stats.add t.stats Stats.scrubbed_blocks blocks_checked;
                     match next_block with Some nb -> step nb | None -> ())
                 | Error detail ->
                     problems :=
                       Printf.sprintf "table %06d: %s" number detail
                       :: !problems;
                     ignore (enqueue_suspect t ~number ~detail : bool)
               in
               step (if number = resume_file then resume_block else 0)
             end)
           files;
         (* Whole disk component verified: check the live WAL tail. A
            corrupt tail is not fatal — the memtable still holds every
            record — but it must be surfaced and retired by a flush
            before a crash would make recovery salvage short. The
            writer may have an append in flight, so only the prefix it
            has fully written is classified ([written_bytes] is read
            BEFORE the file): a racing half-written record can never
            masquerade as corruption. *)
         (match (current_pm t).wal with
          | Some w when not (Clsm_wal.Wal_writer.poisoned w) -> (
              let path = Clsm_wal.Wal_writer.path w in
              let synced = Clsm_wal.Wal_writer.written_bytes w in
              match
                Clsm_wal.Wal_reader.read_records ~env:t.opts.Options.env
                  ~strict:false ~max_bytes:synced path
              with
              | _, Clsm_wal.Wal_reader.Corrupt_tail ->
                  let p = path ^ ": corrupt WAL tail" in
                  problems := p :: !problems;
                  Stats.incr t.stats Stats.corruptions_detected;
                  Log.err (fun m -> m "scrub: %s" p);
                  wake_bg t
              | _, (Clsm_wal.Wal_reader.Clean | Clsm_wal.Wal_reader.Torn_tail)
                ->
                  ())
          | Some _ | None -> ());
         cursor := None
       with Exit -> ());
      let finished = !cursor = None in
      Mutex.protect h.hm (fun () ->
          h.scrub_cursor <- !cursor;
          if finished then
            h.scrub_next_due <-
              Time_ns.now_s () +. t.opts.Options.scrub_interval);
      (List.rev !problems, finished))

(* A full scrub pass, run synchronously under the scrub claim the
   caller already holds. Restarts from the beginning regardless of any
   background cursor. *)
let scrub_full_pass t =
  Mutex.protect t.heal.hm (fun () -> t.heal.scrub_cursor <- None);
  let problems, finished = scrub_slice t ~budget:max_int in
  assert finished;
  problems

(* Re-open table [number] fresh, without the block cache, and verify
   every block: the footer, index and filter load can hit the same rot
   the data blocks did. An entry-less table holds nothing to keep. *)
let reverify t number =
  match
    Table_file.open_number ~env:t.opts.Options.env ~dir:t.opts.Options.dir
      number
  with
  | exception Env.Crashed -> raise Env.Crashed
  | exception Env.Error _ -> `Io
  | exception e -> `Rotten (Printexc.to_string e)
  | tf -> (
      Fun.protect
        ~finally:(fun () ->
          try Clsm_sstable.Table.close tf.Table_file.table with _ -> ())
        (fun () ->
          match Clsm_sstable.Table.verify tf.Table_file.table with
          | Ok _ when tf.Table_file.smallest <> "" -> `Clean
          | Ok _ -> `Rotten "no entries"
          | Error detail -> `Rotten detail
          | exception Env.Error _ -> `Io))

(* Repair out of [`Partial] (DESIGN §12): settle every pending verdict.
   A suspect never left the version, so nothing ever has to come back:

   - gone from the version (compacted away meanwhile): moot, dropped;
   - re-verifies clean (the rot was transient, a bit flipped on some
     past read rather than damage on the platter): dropped, with no
     edit and nothing written;
   - still rotten: discarded by one [`Quarantine] edit for the batch,
     which sets the file aside as evidence ([commit_edit] step 4); its
     key ranges keep answering from surviving older data;
   - an [Env.Error] on the way: kept, and the round is [`Blocked].

   A final full scrub pass vets the whole component before [`Ok] is
   honest; fresh verdicts it queues block the transition until the
   next round. Returns [`Nothing] (no verdicts), [`Repaired] or
   [`Blocked] (retried after the damping interval). *)
let settle_suspects t =
  let h = t.heal in
  let suspects = Mutex.protect h.hm (fun () -> List.rev h.suspects) in
  if suspects = [] then `Nothing
  else begin
    let blocked = ref false in
    let rotten = ref [] in
    let settled =
      List.filter_map
        (fun (number, _) ->
          if Version.find_file (current_version t) number = None then
            Some number
          else
            match reverify t number with
            | `Io ->
                blocked := true;
                None
            | `Clean ->
                Log.info (fun m ->
                    m "repair: table %06d re-verified clean" number);
                Some number
            | `Rotten detail ->
                Log.err (fun m ->
                    m "repair: table %06d still rotten: %s" number detail);
                rotten := number :: !rotten;
                Some number)
        suspects
    in
    if !rotten <> [] then
      commit_edit t ~kind:`Quarantine
        { Version_edit.empty with removed = !rotten };
    Mutex.protect h.hm (fun () ->
        h.suspects <-
          List.filter (fun (n, _) -> not (List.mem n settled)) h.suspects);
    (* a compaction a suspect held back may be claimable now *)
    wake_bg t;
    if !blocked then `Blocked
    else begin
      claim_blocking t `Scrub;
      match
        Fun.protect
          ~finally:(fun () -> release t `Scrub)
          (fun () -> scrub_full_pass t)
      with
      | exception Env.Error _ -> `Blocked
      | [] -> `Repaired
      | _problems -> `Blocked
    end
  end
[@@excludes_locks]

(* Repair out of [`Degraded]: prove the failure path works again by
   pushing everything buffered out to disk — clear any stuck immutable
   component, rotate the (possibly WAL-poisoned) memtable and flush
   it so a fresh log takes over, then commit a manifest as a final
   write-path probe. Success means the fault was transient after all:
   the degraded flag is lifted online, without reopening the store. *)
let recover_from_degraded t =
  match Atomic.get t.state with
  | Open | Closing | Closed -> `Nothing
  | Degraded reason as was ->
      if not (claim t `Flush) then `Blocked (* flush in flight *)
      else
        Fun.protect
          ~finally:(fun () -> release t `Flush)
          (fun () ->
            match
              ignore (flush_imm t : bool);
              ignore (rotate t : bool);
              ignore (flush_imm t : bool);
              commit_edit t ~kind:`Commit Version_edit.empty
            with
            | () ->
                (* A CAS from the state read: a [close] begun meanwhile
                   stays [Closing]. *)
                if Atomic.compare_and_set t.state was Open then begin
                  Log.info (fun m ->
                      m "repair: store restored to Ok (was degraded: %s)"
                        reason);
                  `Repaired
                end
                else `Nothing
            | exception Env.Error _ -> `Blocked)

(* Seconds before a failed repair is retried: a repair that fails
   (media still rotten, fault still live) must not hot-loop the pool. *)
let repair_damping = 1.0

(* The [Repair] job body, run by the scheduler when [auto_repair] is on
   and always by [repair_now]. Caller holds the repair claim. *)
let run_repair t =
  let h = t.heal in
  (* Damp the next attempt up front. *)
  Mutex.protect h.hm (fun () ->
      h.repair_next_due <- Time_ns.now_s () +. repair_damping);
  List.iter
    (function
      | `Repaired -> Stats.incr t.stats Stats.auto_repairs
      | `Nothing | `Blocked -> ())
    [ settle_suspects t; recover_from_degraded t ]
[@@excludes_locks]

(* ---------- the scheduler's job interface ---------- *)

(* Claim the highest-priority runnable job. This is the one place the
   claim order lives: an unclaimed needed flush first (it is what frees
   WAL space), then Repair, then compactions (Compaction.pick orders
   them L0→L1 first, then shallowest over-budget level), then Scrub
   when nothing else wants the worker. A degraded store skips the
   flush check — its write path is exactly what is broken — and claims
   nothing but Repair, which is the way back out. A closing store
   claims nothing; the state is read under [cm], so a claim made before
   [close] began is one [quiesce] sees and waits out. *)
let next t =
  let c = t.claims and h = t.heal in
  let now = Time_ns.now_s () in
  Mutex.protect c.cm (fun () ->
      let repair_wanted ~degraded =
        t.opts.Options.auto_repair
        && Mutex.protect h.hm (fun () ->
               now >= h.repair_next_due && (h.suspects <> [] || degraded))
      in
      let scrub_due () =
        t.opts.Options.scrub_interval > 0.0
        && Mutex.protect h.hm (fun () -> now >= h.scrub_next_due)
      in
      match Atomic.get t.state with
      | Closing | Closed -> None
      | Degraded _ ->
          if repair_wanted ~degraded:true && claim_locked c `Repair then
            Some Job.Repair
          else None
      | Open -> (
          if flush_needed t && claim_locked c `Flush then Some Job.Flush
          else if repair_wanted ~degraded:false && claim_locked c `Repair
          then Some Job.Repair
          else
            match claim_compaction_locked t with
            | Some _ as j -> j
            | None ->
                if scrub_due () && claim_locked c `Scrub then Some Job.Scrub
                else None))

let run_flush t =
  Fun.protect
    ~finally:(fun () -> release t `Flush)
    (fun () ->
      (* Clear a pending immutable component first, then rotate an
         over-budget memtable and flush the result. *)
      ignore (flush_imm t);
      if
        Memtable.approximate_bytes (current_pm t).mem
        > t.opts.Options.memtable_bytes
      then if rotate t then ignore (flush_imm t))

let run t (job : Job.t) =
  match job with
  | Job.Flush -> guard_io t ~what:"memtable flush" (fun () -> run_flush t)
  | Job.Repair ->
      Fun.protect
        ~finally:(fun () -> release t `Repair)
        (fun () ->
          guard_io t ~what:"repair" (fun () -> run_repair t))
  | Job.Scrub ->
      Fun.protect
        ~finally:(fun () -> release t `Scrub)
        (fun () ->
          guard_io t ~what:"scrub" (fun () ->
              try
                (* 256 blocks per slice, then the worker is free again;
                   the cursor carries the pass across slices *)
                ignore (scrub_slice t ~budget:256 : string list * bool)
              with Env.Error _ ->
                (* A transient read failure is not corruption and must
                   not degrade the store off a hygiene pass: abandon
                   the slice (the cursor is unchanged) and push the
                   pass out a full interval so a persistently sick
                   disk cannot hot-loop the worker. *)
                Mutex.protect t.heal.hm (fun () ->
                    t.heal.scrub_next_due <-
                      Time_ns.now_s ()
                      +. Float.max 1.0 t.opts.Options.scrub_interval)))
  | Job.Compact { src_level; target_level } -> (
      let range = (src_level, target_level) in
      match take_pending t range with
      | None -> release_compaction t range
      | Some cc ->
          Fun.protect
            ~finally:(fun () ->
              (* unpin first: a woken drain must find the inputs freed *)
              Refcounted.decr cc.Store_state.pinned;
              release_compaction t range)
            (fun () ->
              guard_io t ~what:"compaction" (fun () ->
                  run_claimed_compaction t cc)))

(* Every state change wakes the workers, so only work that falls due
   with time needs a clock: the next scrub pass and the retry of a
   failed repair. Without either there is no ticker. *)
let tick (opts : Options.t) =
  if opts.scrub_interval > 0.0 then
    Some (Float.min repair_damping opts.scrub_interval)
  else if opts.auto_repair then Some repair_damping
  else None

let make_scheduler t =
  Scheduler.create ~num_workers:t.opts.Options.maintenance_workers
    ?tick:(tick t.opts) ~pp:Job.pp
    ~next:(fun () -> next t)
    ~run:(fun job -> run t job)
    ()

(* ---------- foreground maintenance ---------- *)

(* Synchronously rotate, flush and compact to quiescence, cooperating
   with (not fighting) the background workers: claims are shared, and
   quiescence means no claimable work and no claim in flight. *)
let compact_now t =
  claim_blocking t `Flush;
  Fun.protect
    ~finally:(fun () -> release t `Flush)
    (fun () ->
      guard_io t ~what:"foreground flush" (fun () ->
          ignore (flush_imm t);
          ignore (rotate t);
          ignore (flush_imm t)));
  let c = t.claims in
  let rec drain () =
    let claimed =
      await_release t (fun () ->
          Mutex.protect c.cm (fun () ->
              (* A degraded store must not keep re-claiming the same
                 doomed task: stop draining, the directory is as
                 compacted as it will get. A closing one is shutting
                 maintenance down. *)
              if Atomic.get t.state != Open then Some None
              else
                match claim_compaction_locked t with
                | Some job -> Some (Some job)
                | None ->
                    if c.busy_levels <> [] || c.flush_claimed then None
                    else Some None))
    in
    match claimed with
    | Some job ->
        run t job;
        drain ()
    | None -> ()
  in
  drain ()
[@@excludes_locks]

(* [close]'s step after maintenance has stopped: take the flush claim
   for good, so no foreground flush or rotation runs again, and wait
   out the compactions in flight. None can be claimed any more: the
   store is [Closing], and every claimant reads that under [cm]. *)
let quiesce t =
  claim_blocking t `Flush;
  let c = t.claims in
  await_release t (fun () ->
      Mutex.protect c.cm (fun () ->
          if c.busy_levels = [] then Some () else None))
[@@excludes_locks]

(* Synchronous full scrub pass (the CLI's [scrub] and the tests call
   this): verify every sstable block plus the WAL tail and queue a
   verdict for anything rotten; it changes nothing ([repair_now]
   settles the verdicts). Returns human-readable problem descriptions,
   [] when clean. *)
let scrub_now t =
  claim_blocking t `Scrub;
  Fun.protect ~finally:(fun () -> release t `Scrub) (fun () -> scrub_full_pass t)
[@@excludes_locks]

(* Synchronous repair attempt (the Repair job, forced): verdict
   settlement and the degraded-recovery probe run even with
   [auto_repair] off. *)
let repair_now t =
  claim_blocking t `Repair;
  Fun.protect
    ~finally:(fun () -> release t `Repair)
    (fun () -> guard_io t ~what:"repair" (fun () -> run_repair t))
[@@excludes_locks]
