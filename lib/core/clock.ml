(* The shared logical-time domain of the store, extracted from the store
   core so several cLSM instances (range shards) can serve one timestamp
   space: the paper's [timeCounter], the [Active] set of in-flight write
   timestamps, the blind-writer subset [put_active], the monotone
   [snapTime] fence, and the registry of live snapshot timestamps that
   compaction GC consults.

   A clock owned by a single store behaves exactly as the fields did when
   they lived inside [Db]. A clock shared by several stores gives their
   union one serializable history: a snapshot timestamp fenced here is
   valid against every store drawing timestamps from the same clock, which
   is what makes consistent cross-shard scans a single [getSnap]. *)

open Clsm_primitives

type t = {
  time_counter : Monotonic_counter.t;
  active : Active_set.t;
  put_active : Active_set.t;
      (* blind writers only (put/delete), a subset of [active]: what an
         RMW's in-flight fence drains — older RMWs self-detect via their
         conflict check, so waiting on them would serialize all RMWs *)
  snap_time : Monotonic_counter.t;
  snapshots : Snapshot_registry.t;
}

(* How many timestamps each set can hold in flight at once: one per
   domain the runtime can run ({!Active_set.homes}), with room for
   systhreads sharing a domain. Scans read only the slots claimed, so the
   capacity costs memory, not time. *)
let active_capacity = 32 * Active_set.homes

let create () =
  {
    time_counter = Monotonic_counter.create 0;
    active = Active_set.create ~capacity:active_capacity ();
    put_active = Active_set.create ~capacity:active_capacity ();
    snap_time = Monotonic_counter.create 0;
    snapshots = Snapshot_registry.create ();
  }

let now t = Monotonic_counter.get t.time_counter

(* Recovery found persisted timestamps up to [ts]: new writes must draw
   strictly newer ones. CAS-max, so shards recovering concurrently (or in
   any order) converge on the global maximum. *)
let observe_recovered_ts t ts =
  ignore (Monotonic_counter.advance_to t.time_counter ts)

(* Algorithm 2, getTS: acquire a fresh timestamp, retrying while it falls
   at or below a concurrently chosen snapshot time. *)
let get_ts t =
  let rec loop () =
    let ts = Monotonic_counter.inc_and_get t.time_counter in
    let h = Active_set.add t.active ts in
    if ts <= Monotonic_counter.get t.snap_time then begin
      Active_set.remove t.active h;
      loop ()
    end
    else (ts, h)
  in
  loop ()

(* Blind writers (put/delete) additionally register in [put_active], the
   set an RMW's in-flight fence drains. The registration must precede the
   snapTime check so the store-load handshake with the RMW's
   advance_to/find_min pair cannot miss: either the writer sees the fence
   and re-draws, or the RMW sees the writer and waits. *)
let get_put_ts t =
  let rec loop () =
    let ts = Monotonic_counter.inc_and_get t.time_counter in
    let h = Active_set.add t.active ts in
    let hp = Active_set.add t.put_active ts in
    if ts <= Monotonic_counter.get t.snap_time then begin
      Active_set.remove t.put_active hp;
      Active_set.remove t.active h;
      loop ()
    end
    else (ts, h, hp)
  in
  loop ()

let end_op t h = Active_set.remove t.active h

let end_put t ~active ~put =
  Active_set.remove t.put_active put;
  Active_set.remove t.active active

(* Batch timestamps: bare increments, no Active registration. Only legal
   while the caller excludes every snapshot fence that could observe the
   batched keys — the single store holds its shared-exclusive lock in
   exclusive mode, the shard router additionally holds its router lock in
   shared mode against the (exclusive) cross-shard [getSnap]. *)
let batch_ts t = Monotonic_counter.inc_and_get t.time_counter

(* The RMW in-flight fence (Algorithm 3 as deployed here, see Db.rmw):
   make any put that drew an older timestamp but has not yet published
   re-draw, and drain the ones already committed to theirs. *)
let rmw_fence t ~ts =
  ignore (Monotonic_counter.advance_to t.snap_time (ts - 1));
  let b = Backoff.create () in
  let rec wait () =
    match Active_set.find_min t.put_active with
    | Some m when m < ts ->
        Backoff.once b;
        wait ()
    | Some _ | None -> ()
  in
  wait ()

type snapshot_mode = Serializable | Linearizable | Unsafe_naive

(* Wait out writes holding timestamps below [bound ()]; each iteration
   implies progress of some writer. *)
let drain_below t bound =
  let b = Backoff.create () in
  let rec wait () =
    match Active_set.find_min t.active with
    | Some m when m < bound () ->
        Backoff.once b;
        wait ()
    | Some _ | None -> ()
  in
  wait ()

(* Algorithm 2, getSnap: choose a snapshot timestamp and publish it as
   the snapTime fence. *)
let choose_snap_ts t ~mode =
  let ts = Monotonic_counter.get t.time_counter in
  match mode with
  | Unsafe_naive ->
      (* Ablation: the strawman rejected in §3.2.1 (Figures 3-4) — read
         timeCounter directly; concurrent puts can make scans
         unserializable. *)
      ts
  | Serializable | Linearizable ->
      let ts =
        match mode with
        | Linearizable -> ts
        | Serializable | Unsafe_naive -> (
            (* Serializable default: step below every in-flight write
               (lines 10-11); the scan may read slightly "in the past". *)
            match Active_set.find_min t.active with
            | Some tsa -> min ts (tsa - 1)
            | None -> ts)
      in
      ignore (Monotonic_counter.advance_to t.snap_time ts);
      ts

(* Line 13: wait out writes whose timestamps are at or below snapTime.
   A writer whose timestamp equals snapTime re-draws only if its check
   saw the fence; one that checked just before it is in Active, and the
   snapshot covers its timestamp, so it must be waited out like the
   older ones — otherwise the snapshot reads the key before that write
   lands and after, and sees two different values. *)
let fence t ~mode =
  if mode <> Unsafe_naive then
    drain_below t (fun () -> Monotonic_counter.get t.snap_time + 1)

let snap_ts t ~mode =
  let ts = choose_snap_ts t ~mode in
  fence t ~mode;
  ts

type snapshot = {
  snap_ts : int;
  handle : Snapshot_registry.handle option;
  released : bool Atomic.t;
}

(* The timestamp is chosen and pinned in one registry critical section,
   and pinned before the fence's wait: on a shared clock the other
   stores keep rotating, flushing and compacting meanwhile, and a merge
   whose snapshot list missed this timestamp could collapse away a
   version the snapshot must see. *)
let snapshot ?ttl t ~mode ~now =
  let snap_ts, handle =
    Snapshot_registry.install_chosen t.snapshots ?ttl ~now (fun () ->
        choose_snap_ts t ~mode)
  in
  fence t ~mode;
  { snap_ts; handle; released = Atomic.make false }

(* A rotation freezes a memtable whose writes have all landed — its
   store's exclusive lock saw to that — but on a shared clock another
   store may still hold an older timestamp in flight. A snapshot fenced
   later can then sit below the frozen table's newest versions while a
   compaction, ignorant of that future snapshot, collapses the older
   versions it will need. Waiting here for every write below the
   current counter restores the single-store invariant: everything
   frozen is older than every in-flight write, hence visible to every
   future snapshot. *)
let await_older_writes t =
  let bound = Monotonic_counter.get t.time_counter in
  drain_below t (fun () -> bound)

let release_snapshot t s =
  if not (Atomic.exchange s.released true) then
    Option.iter (Snapshot_registry.remove t.snapshots) s.handle

let live_snapshots t ~now:now_s =
  Snapshot_registry.live_timestamps t.snapshots ~now:now_s
