(** Range-shard router: N cLSM instances behind one {!Store_sig.S}.

    Composes [Options.shards] {!Db} instances — each owning a contiguous
    key range and the subdirectory [shard-<i>] — into one store. All
    shards draw timestamps from one shared {!Clock}, so their union is a
    single serializable history:

    - point operations route to the owning shard (binary search over the
      boundary keys) and keep the shard's lock-free paths;
    - [get_snap] runs one clock fence valid across every shard, and
      cross-shard scans merge the per-shard snapshot iterators on
      user-key order ({!Clsm_lsm.Merge_iter} over {!Clsm_lsm.Iter.clamp}
      views);
    - [write_batch] groups operations by shard and excludes snapshot
      fences for the duration (router-level shared-exclusive lock:
      batches shared, [get_snap] exclusive), so a router snapshot sees
      all of a batch or none of it;
    - one shared maintenance pool arbitrates flush/compaction across all
      shards (round-robin over the shards' claims, each run on the shard
      that claimed it); the shards are opened with {!Db.open_shard} and
      run no schedulers of their own.

    The boundary keys are persisted in a [SHARDING] file in the root
    directory (version header, hex-encoded keys); on reopen the file
    wins over [Options.shards]/[shard_boundaries] — data already placed
    under the old boundaries cannot move. Boundaries default to a
    byte-uniform split of the keyspace ([shards <= 256]).

    [repair] rebuilds each shard directory independently; [health]
    reports the union of per-shard degradations, so one shard's IO
    failure leaves the other ranges writable.

    [close] (and [simulate_crash]) first turns router-level calls away
    with {!Store_sig.Closed} and waits out the router batches in flight,
    so no batch is cut by the shutdown; then it stops the shared pool
    and closes every shard with the single-store contract ({!Db}).
    Point operations check their shard only, so one that lands before
    its shard closes still completes. A second call returns once the
    first has finished. *)

include Store_sig.S

(** {1 Router introspection} *)

val shard_count : t -> int

val shard_boundaries : t -> string list
(** The [shards - 1] ascending boundary keys in effect (persisted or
    derived); shard [i] owns [[b_(i-1), b_i)]. *)

val shard_stats : t -> Stats.snapshot array
(** Per-shard counters, index-aligned with the shard directories.
    {!Store_sig.S.stats} returns their {!Stats.merge_all} roll-up plus
    the router's own fence counters. *)

val shard_healths : t -> [ `Ok | `Partial of string | `Degraded of string ] array
(** Per-shard health, index-aligned: pending corruption verdicts and IO
    degradations stay isolated to the shard that hit them. *)
