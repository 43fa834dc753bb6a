(* The cLSM store algorithm over the lock-free skip-list memtable:
   Algorithms 1-3 call {!Memtable} directly, and Algorithm 3's optimistic
   install is the memtable's locate/try_install pair. The subsystems live
   in their own modules and are composed here: shared state in
   {!Store_state}, crash recovery in {!Recovery}, the graduated write
   controller in {!Backpressure}, the merge hooks and job layer in
   {!Maintenance_hooks}, driven by the event-driven
   {!Clsm_maintenance.Scheduler}. {!Db} is this module plus the bulk
   reads {!Store_sig.Scans} derives from it. *)

open Clsm_primitives
open Clsm_lsm
module Time_ns = Clsm_util.Time_ns
open Store_state

type t = Store_state.t

(* ---------- reads (Algorithm 1: no blocking, Pm -> P'm -> Pd) ---------- *)

(* Silent corruption discovered on a read path is contained, not
   fatal: the verdict is enqueued (read paths may hold the shared
   lock, so re-verification and any discard are deferred to the Repair
   job) and the rotten block treated as a miss — overlapping data in
   other tables still answers. Health reports [`Partial] until repair
   settles the verdict. *)
let on_corrupt t tf detail =
  ignore (enqueue_suspect t ~number:tf.Table_file.number ~detail : bool)

(* [Pm] and [P'm] are plain atomic loads (see [Store_state.t]). [Pd] is
   probed under a reference taken from its RCU box and dropped after,
   also when the probe raises. Written out rather than through
   [Rcu_box.with_ref] so that a get allocates no closure. *)
let get_entry t ~user_key ~snap_ts =
  match Memtable.get (Atomic.get t.pm).mem ~user_key ~snap_ts with
  | Some (_, entry) -> Some entry
  | None -> (
      let from_imm =
        match Atomic.get t.pimm with
        | No_imm -> None
        | Imm mc -> Memtable.get mc.mem ~user_key ~snap_ts
      in
      match from_imm with
      | Some (_, entry) -> Some entry
      | None -> (
          let pd = Rcu_box.acquire t.pd in
          let from_disk =
            match
              Version.get ~on_corrupt:(on_corrupt t) (Refcounted.value pd)
                ~user_key ~snap_ts
            with
            | r -> Refcounted.decr pd; r
            | exception e -> Refcounted.decr pd; raise e
          in
          match from_disk with Some (_, entry) -> Some entry | None -> None))

(* Point reads are timed end to end (memtable probe through block cache
   and disk) into a latency histogram — the paper's "gets never block"
   property is only observable as a latency distribution. *)
let timed_get t ~user_key ~snap_ts =
  let t0 = Time_ns.now_ns () in
  let r =
    match get_entry t ~user_key ~snap_ts with
    | Some (Entry.Value v) -> Some v
    | Some Entry.Tombstone | None -> None
  in
  Stats.record_get_latency t.stats ~ns:(Time_ns.now_ns () - t0);
  r

let get t key =
  check_open t;
  Stats.incr t.stats Stats.gets;
  timed_get t ~user_key:key ~snap_ts:Internal_key.max_ts

(* ---------- writes (Algorithm 1/2: shared lock + timestamp) ----------

   The timestamp machinery — getTS, the Active/put_active handshake,
   the snapTime fence — lives in {!Clock}, shared by every shard of a
   range-sharded deployment (and private to this store otherwise). *)

(* Graduated admission control (see {!Backpressure}), checked outside the
   shared lock so a delayed or stalled writer cannot block the merge.
   A store that is not [Open] counts as stopped: the stall a degraded
   store's writer waits out (e.g. a full L0 that can no longer be
   compacted) will never clear, and a closing store takes no more
   writes, so the writer goes on to the check under the lock, which
   raises. *)
let observe_pressure t () =
  {
    Backpressure.stopped = Atomic.get t.state != Open;
    mem_full =
      Memtable.approximate_bytes (current_pm t).mem
      > 2 * t.opts.Options.memtable_bytes;
    imm_busy = (match current_imm t with Imm _ -> true | No_imm -> false);
    l0_files = Version.level_file_count (current_version t) 0;
  }

let throttle_writes t =
  Backpressure.admit t.backpressure
    ~observe:(observe_pressure t)
    ~wake:(fun () -> wake_bg t)

(* Memtable over budget: hand the rotation to the maintenance workers. *)
let maybe_wake_for_rotation t mc =
  if Memtable.approximate_bytes mc.mem > t.opts.Options.memtable_bytes then
    wake_bg t

(* Append to the memory component's log. An environment failure (failed
   fsync, out of space) degrades the store to read-only before the
   exception reaches the caller: the writer is poisoned, so no later
   write could be made durable either. *)
let wal_append ?alone t mc data =
  match mc.wal with
  | None -> ()
  | Some w -> (
      try Clsm_wal.Wal_writer.append ?alone w data
      with (Clsm_env.Env.Error _ | Clsm_env.Env.Crashed) as e ->
        degrade t ("wal append failed: " ^ Printexc.to_string e);
        raise e)

let write_entry t ~counter ~user_key entry =
  throttle_writes t;
  Shared_lock.lock_shared t.lock;
  let mc = current_pm t in
  Fun.protect
    ~finally:(fun () -> Shared_lock.unlock_shared t.lock)
    (fun () ->
      check_writable t;
      Stats.incr t.stats counter;
      let ts, h, hp = Clock.get_put_ts t.clock in
      (* The Active entries guard visibility (snapshots and RMWs wait
         on them), which is established by the memtable insert; holding
         them across the WAL append would only stall those on group
         commit. *)
      Fun.protect
        ~finally:(fun () -> Clock.end_put t.clock ~active:h ~put:hp)
        (fun () -> Memtable.add mc.mem ~user_key ~ts entry);
      wal_append t mc (Log_record.encode { Log_record.ts; user_key; entry }));
  maybe_wake_for_rotation t mc

let put t ~key ~value =
  write_entry t ~counter:Stats.puts ~user_key:key (Entry.Value value)

(* Atomic batches keep LevelDB's blocking implementation (paper §4): the
   shared-exclusive lock is held in exclusive mode, so the batch is atomic
   with respect to every writer and every snapshot (getSnap also takes the
   lock); it is logged as one WAL record, so it is durable
   all-or-nothing. *)
type batch_op = Batch_put of string * string | Batch_delete of string

let write_batch t ops =
  if ops = [] then check_open t
  else begin
    throttle_writes t;
    Shared_lock.lock_exclusive t.lock;
    let mc = current_pm t in
    Fun.protect
      ~finally:(fun () -> Shared_lock.unlock_exclusive t.lock)
      (fun () ->
        check_writable t;
        let records =
          List.map
            (fun op ->
              let user_key, entry =
                match op with
                | Batch_put (key, value) ->
                    Stats.incr t.stats Stats.puts;
                    (key, Entry.Value value)
                | Batch_delete key ->
                    Stats.incr t.stats Stats.deletes;
                    (key, Entry.Tombstone)
              in
              (* No snapshot fence that could observe these keys can run
                 concurrently — a local getSnap needs this store's
                 shared lock, a cross-shard getSnap holds the router
                 lock against write batches — so bare timestamps are
                 safe here without the Active set. *)
              let ts = Clock.batch_ts t.clock in
              Memtable.add mc.mem ~user_key ~ts entry;
              { Log_record.ts; user_key; entry })
            ops
        in
        (* Every put appends under the shared lock this batch holds
           exclusively, so no rider can board a group-commit window. *)
        wal_append ~alone:true t mc (Log_record.encode_batch records));
    maybe_wake_for_rotation t mc
  end

let delete t ~key =
  write_entry t ~counter:Stats.deletes ~user_key:key Entry.Tombstone

(* ---------- read-modify-write (Algorithm 3) ---------- *)

type rmw_decision = Set of string | Remove | Abort

let rmw t ~key f =
  throttle_writes t;
  Shared_lock.lock_shared t.lock;
  let pm = current_pm t in
  let rec attempt () =
    (* Line 4: newest version across Pm, P'm, Pd. Under the shared lock the
       component pointers are stable (swaps require exclusive mode). *)
    let latest =
      match Memtable.get pm.mem ~user_key:key ~snap_ts:Internal_key.max_ts with
      | Some _ as hit -> hit
      | None -> (
          match current_imm t with
          | Imm mc -> (
              match
                Memtable.get mc.mem ~user_key:key ~snap_ts:Internal_key.max_ts
              with
              | Some _ as hit -> hit
              | None ->
                  Version.get ~on_corrupt:(on_corrupt t) (current_version t)
                    ~user_key:key ~snap_ts:Internal_key.max_ts)
          | No_imm ->
              Version.get ~on_corrupt:(on_corrupt t) (current_version t)
                ~user_key:key ~snap_ts:Internal_key.max_ts)
    in
    let seen_ts = match latest with Some (ts, _) -> ts | None -> 0 in
    let pre_image =
      match latest with Some (_, Entry.Value v) -> Some v | _ -> None
    in
    match f pre_image with
    | Abort -> pre_image
    | decision -> (
        let entry =
          match decision with
          | Set v -> Entry.Value v
          | Remove -> Entry.Tombstone
          | Abort -> assert false
        in
        (* Line 9 first: the fresh timestamp, then fence out the
           blind spot the paper's line order leaves open — a put that
           drew an older timestamp but has not yet published its node
           would slot in *beneath* ours, invisible to the read above
           and to the conflict check below, and its value would be
           lost without the RMW ever observing it. The clock's
           [rmw_fence] makes any such straddling writer re-draw a newer
           timestamp (the getTS retry) and drains the ones already
           committed to theirs — the same handshake getSnap relies on.
           Only blind writers need draining: an older RMW locates after
           its own drain, so it detects our newer version as a conflict
           by itself; waiting on [active] here would needlessly
           serialize independent RMWs. Progress: the oldest active
           writer never waits, so every wait iteration implies
           system-wide progress. *)
        let ts, h = Clock.get_ts t.clock in
        Clock.rmw_fence t.clock ~ts;
        (* Lines 5-6: locate the insertion point for (k, ∞); a
           predecessor version newer than what we read is a conflict.
           Every version with a timestamp below ours has landed by
           now, so a clean check really means no intervening write. *)
        let prev_ts, loc = Memtable.locate_rmw pm.mem ~user_key:key in
        match prev_ts with
        | Some p when p > seen_ts ->
            Clock.end_op t.clock h;
            Stats.incr t.stats Stats.rmw_conflicts;
            attempt ()
        | _ ->
            (* Lines 10-12: publish with a CAS. *)
            if Memtable.try_install pm.mem loc ~user_key:key ~ts entry then begin
              Clock.end_op t.clock h;
              wal_append t pm
                (Log_record.encode { Log_record.ts; user_key = key; entry });
              pre_image
            end
            else begin
              Clock.end_op t.clock h;
              Stats.incr t.stats Stats.rmw_conflicts;
              attempt ()
            end)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Shared_lock.unlock_shared t.lock)
      (fun () ->
        check_writable t;
        Stats.incr t.stats Stats.rmws;
        attempt ())
  in
  maybe_wake_for_rotation t pm;
  result

let put_if_absent t ~key ~value =
  (* [f] can be re-invoked after a conflict; only the decision of the final
     (successful) invocation stands, so the flag must be overwritten on
     every call rather than latched. *)
  let installed = ref false in
  ignore
    (rmw t ~key (function
      | Some _ ->
          installed := false;
          Abort
      | None ->
          installed := true;
          Set value));
  !installed

(* ---------- snapshots (Algorithm 2) ---------- *)

type snapshot = Clock.snapshot

let get_snap ?ttl t =
  check_open t;
  Stats.incr t.stats Stats.snapshots_taken;
  Shared_lock.lock_shared t.lock;
  let s =
    Clock.snapshot ?ttl t.clock ~mode:t.opts.Options.snapshots
      ~now:(Time_ns.now_s ())
  in
  Shared_lock.unlock_shared t.lock;
  s

let snapshot_ts (s : snapshot) = s.snap_ts
let release_snapshot t s = Clock.release_snapshot t.clock s

let get_at t (s : snapshot) key =
  check_open t;
  Stats.incr t.stats Stats.gets;
  if Atomic.get s.released then invalid_arg "Db.get_at: released snapshot";
  timed_get t ~user_key:key ~snap_ts:s.snap_ts

(* ---------- iterators / scans ---------- *)

type iterator = {
  snap : snapshot;
  own_snapshot : bool;
  merged : Iter.t;
  pd_cell : Version.t Refcounted.t;
  db : t;
  mutable cur : (string * string) option;
  mutable it_closed : bool;
}

let iterator ?snapshot t =
  check_open t;
  Stats.incr t.stats Stats.scans;
  let snap, own_snapshot =
    match snapshot with Some s -> (s, false) | None -> (get_snap t, true)
  in
  (* The memtables stay reachable through [sources]; only the disk
     component is pinned, so its files outlive the iterator's reads,
     [close] included. *)
  let pm = Atomic.get t.pm in
  let imm = Atomic.get t.pimm in
  let pd_cell = Rcu_box.acquire t.pd in
  let sources =
    Memtable.iter pm.mem
    :: (match imm with Imm mc -> [ Memtable.iter mc.mem ] | No_imm -> [])
    @ Version.iters (Refcounted.value pd_cell)
  in
  let merged = Merge_iter.merge ~cmp:Internal_key.compare_encoded sources in
  {
    snap;
    own_snapshot;
    merged;
    pd_cell;
    db = t;
    cur = None;
    it_closed = false;
  }

(* A corruption surfacing mid-scan is reported for re-verification and
   re-raised: unlike a point get, a scan cannot treat a rotten file as
   a miss without silently dropping a key range from its answer. The
   caller can retry after repair — a table that re-verified clean reads
   again, and a rotten one is gone from the next read view, so the
   retry answers from surviving data.
   [guard_iter] applies [f] to [x] so that a step passes [advance]
   itself and allocates no closure per row. *)
let guard_iter it f x =
  try f x
  with Table_file.Corruption { number; detail; _ } as e ->
    ignore (enqueue_suspect it.db ~number ~detail : bool);
    raise e

let advance it =
  it.cur <- Iter.next_visible it.merged ~snap_ts:it.snap.snap_ts

let iter_seek_first it =
  guard_iter it
    (fun it ->
      it.merged.Iter.seek_to_first ();
      advance it)
    it

let iter_seek it target =
  guard_iter it
    (fun target ->
      it.merged.Iter.seek (Internal_key.make target 0);
      advance it)
    target

let iter_valid it = it.cur <> None

let iter_key it =
  match it.cur with
  | Some (k, _) -> k
  | None -> invalid_arg "Db.iter_key: invalid iterator"

let iter_value it =
  match it.cur with
  | Some (_, v) -> v
  | None -> invalid_arg "Db.iter_value: invalid iterator"

let iter_next it = if it.cur <> None then guard_iter it advance it

let iter_close it =
  if not it.it_closed then begin
    it.it_closed <- true;
    it.cur <- None;
    Refcounted.decr it.pd_cell;
    if it.own_snapshot then release_snapshot it.db it.snap
  end

(* ---------- maintenance (delegated to the scheduler + hooks) ---------- *)

let compact_now t =
  check_open t;
  Maintenance_hooks.compact_now t

(* ---------- open / recovery / close ---------- *)

let open_shard ~clock (opts : Options.t) =
  let cache =
    Clsm_sstable.Cache.create ~capacity:opts.cache_bytes
      ~readahead:opts.readahead_blocks
      ~weight:Clsm_sstable.Block.size_bytes ()
  in
  (* Stats exist before recovery: the recovered WAL writer's observer
     feeds commit-wait/group-commit accounting into them. *)
  let stats = Stats.create () in
  let r = Recovery.recover opts ~cache ~stats in
  let num_levels = opts.lsm.Lsm_config.num_levels in
  (* Fresh writes must outrank everything this directory persisted —
     with a shared clock, CAS-max across shards in any recovery order. *)
  Clock.observe_recovered_ts clock r.Recovery.last_ts;
  let claims = fresh_claims () in
  let t =
    {
      opts;
      lock = Shared_lock.create ();
      clock;
      pm =
        Atomic.make
          {
            mem = r.Recovery.mem;
            wal = r.Recovery.wal;
            wal_number = r.Recovery.wal_number;
          };
      pimm = Atomic.make No_imm;
      pd =
        Rcu_box.create
          (Refcounted.create ~release:Version.release r.Recovery.version);
      next_file = r.Recovery.next_file;
      cache;
      stats;
      state = Atomic.make Open;
      heal = fresh_heal ();
      install = Mutex.create ();
      claims;
      compact_pointers = Array.make (num_levels - 1) "";
      backpressure =
        Backpressure.create
          ~config:(Backpressure.config_of_options opts)
          ~stats ~changed:claims.released;
      scheduler = None;
      wake_hook = None;
    }
  in
  t

let open_store opts =
  let t = open_shard ~clock:(Clock.create ()) opts in
  let scheduler = Maintenance_hooks.make_scheduler t in
  t.scheduler <- Some scheduler;
  t.wake_hook <- Some (fun () -> Clsm_maintenance.Scheduler.wake scheduler);
  Clsm_maintenance.Scheduler.start scheduler;
  t

let repair = Recovery.repair

let flush_wal t =
  check_open t;
  match (current_pm t).wal with
  | Some w -> Clsm_wal.Wal_writer.flush w
  | None -> ()

(* The shutdown [close] and [simulate_crash] share; [finish] does what
   differs, on a quiet store. [Closing] turns every new operation
   away, and its signal wakes stalled writers into that check; taking
   the lock exclusively then waits out the writes that passed it, as
   beforeMerge waits out puts (Algorithm 1), so none reaches the WAL
   from here on. Then maintenance stops, foreground flushes and
   compactions are excluded for good, and [finish] runs. [Closed] is
   set under [install], so no commit can swap [pd] after it, and only
   then is [pd] retired in place: a racing [acquire] raises [Closed].
   A second caller waits for the first to finish. *)
let rec shutdown t ~finish =
  match Atomic.get t.state with
  | Closing | Closed ->
      Maintenance_hooks.await_release t (fun () ->
          if Atomic.get t.state == Closed then Some () else None)
  | (Open | Degraded _) as s ->
      if not (Atomic.compare_and_set t.state s Closing) then
        shutdown t ~finish
      else begin
        changed t;
        Shared_lock.lock_exclusive t.lock;
        Shared_lock.unlock_exclusive t.lock;
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect t.install (fun () -> Atomic.set t.state Closed);
            Refcounted.retire (Rcu_box.peek t.pd);
            changed t)
          (fun () ->
            (match t.scheduler with
            | Some s ->
                Clsm_maintenance.Scheduler.stop s;
                t.scheduler <- None;
                t.wake_hook <- None
            | None -> ());
            Maintenance_hooks.quiesce t;
            finish (current_pm t).wal)
      end

(* Testing hook: die without flushing the WAL queue or saving the
   manifest — what a crash leaves on disk. A fresh open_store on the
   directory performs recovery. *)
let simulate_crash t = shutdown t ~finish:(Option.iter Clsm_wal.Wal_writer.abandon)

let close t =
  shutdown t ~finish:(fun wal ->
      (* [Wal_writer.close] flushes before closing; an IO failure
         propagates (after the descriptor is released) instead of
         being silently dropped, and the components are released all
         the same. *)
      Option.iter Clsm_wal.Wal_writer.close wal;
      (* The final manifest commit, through the one install step like
         every other (a plain commit: no file changes, transient
         faults ride the retry policy). *)
      Maintenance_hooks.commit_edit t ~kind:`Commit Version_edit.empty)

(* Offline-style health check runnable on a live store: validates every
   table file and the level invariants of the current version. *)
let verify_integrity t =
  check_open t;
  Rcu_box.with_ref t.pd Version.validate

let stats t = Stats.read t.stats
let options t = t.opts

(* Degraded (write path down, also from the start of [close]) dominates
   Partial (some key ranges serving from reduced redundancy); both beat
   Ok. *)
let health t =
  match Atomic.get t.state with
  | Degraded reason -> `Degraded reason
  | Closing | Closed -> `Degraded "store closed"
  | Open -> (
      match suspect_count t with
      | 0 -> `Ok
      | n -> `Partial (Printf.sprintf "%d table(s) awaiting re-verification" n))

let scrub_now t =
  check_open t;
  Maintenance_hooks.scrub_now t

let repair_now t =
  check_open t;
  Maintenance_hooks.repair_now t;
  health t

let level_file_counts t =
  check_open t;
  let v = current_version t in
  List.length v.Version.l0
  :: List.map List.length (Array.to_list v.Version.levels)

let memtable_bytes t =
  check_open t;
  Memtable.approximate_bytes (current_pm t).mem

let cache_stats t =
  check_open t;
  Clsm_sstable.Cache.stats t.cache

(* ---------- shard support (see db.mli) ---------- *)

let maintenance_next t = Maintenance_hooks.next t
let maintenance_run t job = Maintenance_hooks.run t job
let set_wake_hook t f = t.wake_hook <- Some f
