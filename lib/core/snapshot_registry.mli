(** The active snapshot list (paper §3.2.1): getSnap installs a handle;
    merges query the list to decide which versions may be garbage-collected.
    "Handles of unused snapshots are removed from the list either by the
    application (through an API call), or based on TTL" — both removal
    paths are provided.

    The registry is read and written under the store's shared-exclusive
    lock (shared in [getSnap], exclusive in [beforeMerge]), exactly the
    paper's synchronization; internally a small mutex makes it safe for
    the auxiliary callers (stats, compaction snapshot capture). *)

type t
type handle

val create : unit -> t

val install : t -> ?ttl:float -> now:float -> int -> handle
(** Register a snapshot timestamp; with [ttl] (seconds) it is reclaimed
    automatically once [now] passes installation time + ttl. *)

val install_chosen :
  t -> ?ttl:float -> now:float -> (unit -> int) -> int * handle option
(** Register the timestamp [choose ()] returns, chosen under the
    registry's lock: no {!live_timestamps} reader can observe the moment
    between choosing a snapshot timestamp and pinning it. Nothing is
    registered for a timestamp [<= 0] (nothing written yet). *)

val remove : t -> handle -> unit
(** Application-driven release: the entry leaves the list at once, so the
    registry holds only unreleased snapshots whether or not anything calls
    {!live_timestamps}. Idempotent. *)

val live_timestamps : t -> now:float -> int list
(** Ascending timestamps of unexpired snapshots (duplicates preserved);
    prunes expired handles as a side effect. *)

val min_timestamp : t -> now:float -> int option
val cardinal : t -> int
