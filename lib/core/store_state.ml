(* The store's shared state: one record that the layered subsystems —
   Recovery, Backpressure, Maintenance_hooks and the algorithm core in
   Store — are all written against, so none of them has to live in one
   monolithic module. *)

open Clsm_primitives
open Clsm_lsm

(* A memory component: the skip-list plus the log that covers it. *)
type memcomp = {
  mem : Memtable.t;
  wal : Clsm_wal.Wal_writer.t option;
  wal_number : int;
}

type imm_slot = No_imm | Imm of memcomp

(* Claim ledger for the maintenance worker pool: which job slots are
   taken right now, all under [cm]. [flush_claimed] serializes the
   rotate/flush path (the paper's beforeMerge/afterMerge pair must not
   race itself); [busy_levels] holds the (src, target) ranges of
   in-flight compactions so parallel workers only ever merge disjoint
   ranges; [repair_claimed] and [scrub_claimed] make the Repair and
   Scrub jobs single-instance. [released] is the store's one
   state-change cell: every claim release, every install and every
   lifecycle transition signal it (through [changed]), and everything
   that waits on maintenance state waits on it — a blocked claimant, a
   writer in a hard stall, and a second [close]. A claimed compaction
   carries its picked task and a reference on the version it was
   picked from, so input files cannot be retired between claim and
   execution. *)
type claimed_compaction = {
  task : Compaction.task;
  pinned : Version.t Refcounted.t;
}

type claims = {
  cm : Mutex.t;
  mutable flush_claimed : bool;
  mutable repair_claimed : bool;
  mutable scrub_claimed : bool;
  mutable busy_levels : (int * int) list;
  mutable pending : ((int * int) * claimed_compaction) list;
  released : Wakeup.t;
}

(* Self-healing state. Read paths never mutate the version or the
   manifest directly (they may hold the shared lock, which cannot be
   upgraded): a corruption verdict is only *enqueued* here, and the
   maintenance [Repair] job — which holds no locks on entry —
   re-verifies the table and discards it only if it is really rotten. A
   suspect stays in the version until then. *)
type heal = {
  hm : Mutex.t;
  mutable suspects : (int * string) list;
      (* (table number, detail) verdicts awaiting re-verification by
         the Repair job, newest first, one per table *)
  mutable scrub_cursor : (int * int) option;
      (* (table number, data-block index) to resume the current scrub
         pass from; [None] between passes *)
  mutable scrub_next_due : float;
  mutable repair_next_due : float;
      (* damping for repair attempts that can fail and be retried
         (degraded recovery, blocked re-verification) *)
}

(* The store's lifecycle, one cell for all of it (DESIGN §9). [Degraded]
   follows an unrecoverable IO failure: writes raise, reads serve, and a
   repair that re-proves the write path returns to [Open]. [Closing]
   runs from the start of [close] (or [simulate_crash]) to [Closed];
   neither goes back. Every transition is a CAS on the value read. *)
type lifecycle = Open | Degraded of string | Closing | Closed

type t = {
  opts : Options.t;
  lock : Shared_lock.t;
  clock : Clock.t;
      (* the logical-time domain: timeCounter, Active/put_active,
         snapTime and the snapshot registry. Private by default;
         injected (shared) when this store is one shard of a
         range-sharded deployment *)
  pm : memcomp Atomic.t;
  pimm : imm_slot Atomic.t;
      (* The memory components carry no reference count: the GC keeps a
         swapped-out memtable alive for as long as a reader holds it,
         and nothing outside the heap is freed when it goes. Only [pd]
         counts, because its release closes and unlinks table files. *)
  pd : Version.t Rcu_box.t;
  next_file : int Atomic.t;
  cache : Clsm_sstable.Block.t Clsm_sstable.Cache.t;
  stats : Stats.t;
  state : lifecycle Atomic.t;
  install : Mutex.t;
      (* serializes edit commits (Maintenance_hooks.commit_edit): the
         manifest written must describe a version no concurrent install
         is tearing *)
  claims : claims;
  backpressure : Backpressure.t;
  compact_pointers : string array; (* per-level round-robin cursors *)
  mutable scheduler :
    Clsm_maintenance.Job.t Clsm_maintenance.Scheduler.t option;
      (* the store's own worker pool, kept to be stopped at close *)
  mutable wake_hook : (unit -> unit) option;
      (* where maintenance-work signals go: the own pool's wakeup, or a
         shard router's shared scheduler *)
  heal : heal;
}

let alloc_file_number t () = Atomic.fetch_and_add t.next_file 1

(* The entry check of every operation a closing store refuses. *)
let check_open t =
  match Atomic.get t.state with
  | Closing | Closed -> raise Store_sig.Closed
  | Open | Degraded _ -> ()

(* The write-path check, made under the shared lock that [close]
   drains, so no write that passed it reaches the WAL after [close]. *)
let check_writable t =
  match Atomic.get t.state with
  | Open -> ()
  | Degraded reason -> raise (Store_sig.Degraded reason)
  | Closing | Closed -> raise Store_sig.Closed

let fresh_claims () =
  {
    cm = Mutex.create ();
    flush_claimed = false;
    repair_claimed = false;
    scrub_claimed = false;
    busy_levels = [];
    pending = [];
    released = Wakeup.create ();
  }

let fresh_heal () =
  {
    hm = Mutex.create ();
    suspects = [];
    scrub_cursor = None;
    scrub_next_due = Clsm_util.Time_ns.now_s ();
    repair_next_due = 0.0;
  }

let current_pm t = Atomic.get t.pm
let current_imm t = Atomic.get t.pimm
let current_version t = Refcounted.value (Rcu_box.peek t.pd)

(* Signal the maintenance scheduler that work may exist (memtable over
   threshold, rotation, stall, and every [changed]). The paper's
   sleep-polling background loop is gone: this is a real
   Mutex+Condition wakeup. *)
let wake_bg t =
  match t.wake_hook with
  | Some wake ->
      Stats.incr t.stats Stats.maintenance_wakeups;
      wake ()
  | None -> ()

(* The maintenance state changed (a claim released, a version
   installed, a lifecycle transition): wake whoever waits on it and the
   workers, which may now find work a held claim hid. *)
let changed t =
  Wakeup.signal t.claims.released;
  wake_bg t

(* First degradation reason wins; later failures are consequences, and
   a closing store stays closing. The first one wakes the Repair job
   and releases stalled writers. *)
let degrade t reason =
  if Atomic.compare_and_set t.state Open (Degraded reason) then changed t

(* Record a corruption verdict against a table file, deduplicated, and
   signal maintenance. Safe from any read path (only takes the heal
   mutex). Returns whether the verdict was fresh. *)
let enqueue_suspect t ~number ~detail =
  let h = t.heal in
  let fresh =
    Mutex.protect h.hm (fun () ->
        if List.mem_assoc number h.suspects then false
        else begin
          h.suspects <- (number, detail) :: h.suspects;
          true
        end)
  in
  if fresh then begin
    Stats.incr t.stats Stats.corruptions_detected;
    wake_bg t
  end;
  fresh

let suspect_count t =
  Mutex.protect t.heal.hm (fun () -> List.length t.heal.suspects)

(* ---------- manifest ---------- *)

let manifest_of_state t =
  {
    Manifest.next_file_number = Atomic.get t.next_file;
    last_ts = Clock.now t.clock;
    wal_number = (current_pm t).wal_number;
    files =
      List.map
        (fun (level, f) -> (level, (Refcounted.value f).Table_file.number))
        (Version.files_by_level (current_version t));
  }

(* Returns the bytes written. *)
let save_manifest t =
  Manifest.save ~env:t.opts.Options.env ~dir:t.opts.Options.dir
    (manifest_of_state t)
[@@requires_lock install]
