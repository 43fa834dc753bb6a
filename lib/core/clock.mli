(** The store's logical-time domain — the paper's [timeCounter], [Active]
    set, [snapTime] fence and active-snapshot registry — extracted from
    the store core so it can be {e shared}: several cLSM instances
    (range shards) drawing timestamps from one clock form a single
    serializable history, and one fenced snapshot timestamp is consistent
    across all of them.

    Every operation is safe from any domain; nothing here blocks except
    the bounded fence waits of {!snapshot}, {!snap_ts}, {!rmw_fence} and
    {!await_older_writes}, whose every wait iteration implies progress of
    some in-flight writer. *)

open Clsm_primitives

type t

val create : unit -> t
(** A fresh clock at time 0 with an empty snapshot registry. *)

val now : t -> int
(** Current value of [timeCounter]. *)

val observe_recovered_ts : t -> int -> unit
(** Advance [timeCounter] to at least [ts] (CAS-max). Called by each
    store after recovery so fresh writes outrank everything persisted,
    regardless of the order shards recover in. *)

val get_ts : t -> int * Active_set.handle
(** Algorithm 2's [getTS] for RMW writers: a fresh timestamp registered
    in [Active], re-drawn while it falls at or below [snapTime]. Release
    with {!end_op}. *)

val get_put_ts : t -> int * Active_set.handle * Active_set.handle
(** [getTS] for blind writers (put/delete): additionally registered in
    the [put_active] subset that {!rmw_fence} drains. Release with
    {!end_put}. *)

val end_op : t -> Active_set.handle -> unit
val end_put : t -> active:Active_set.handle -> put:Active_set.handle -> unit

val batch_ts : t -> int
(** A bare timestamp with {e no} [Active] registration — only legal while
    the caller excludes every snapshot fence that could observe the
    written keys (the store's exclusive write-batch section; the shard
    router's lock against cross-shard [getSnap]). *)

val rmw_fence : t -> ts:int -> unit
(** The RMW in-flight fence: advance [snapTime] to [ts - 1] so any blind
    writer holding an older-but-unpublished timestamp re-draws, then
    drain [put_active] below [ts]. *)

type snapshot_mode =
  | Serializable  (** default: step below every in-flight write *)
  | Linearizable  (** §3.2.1 variant: omit lines 10–11 *)
  | Unsafe_naive  (** ABLATION ONLY: raw [timeCounter] read, racy *)

val snap_ts : t -> mode:snapshot_mode -> int
(** Algorithm 2's [getSnap] core: choose, fence and wait out a snapshot
    timestamp valid against every store on this clock, without pinning
    it. *)

type snapshot = {
  snap_ts : int;
  handle : Snapshot_registry.handle option;
      (** the registry pin; [None] when [snap_ts = 0] (nothing to pin) *)
  released : bool Atomic.t;
}
(** A snapshot handle, the same for a single store and a shard router. *)

val snapshot : ?ttl:float -> t -> mode:snapshot_mode -> now:float -> snapshot
(** [getSnap]: a fenced timestamp, pinned in the registry compaction GC
    consults as it is chosen. *)

val await_older_writes : t -> unit
(** Wait until no write holds a timestamp below the current counter;
    a rotation calls it under its store's exclusive lock. *)

val release_snapshot : t -> snapshot -> unit
(** Unpin the snapshot. Idempotent: only the first release removes its
    registry entry. *)

val live_snapshots : t -> now:float -> int list
(** Live pinned timestamps, ascending — the GC floor for every store
    sharing this clock. *)
