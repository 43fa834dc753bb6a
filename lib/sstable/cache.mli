(** Sharded CLOCK cache for decoded table blocks, with a lock-free hit
    path.

    The disk component of an LSM-DS "utilizes a large RAM cache" (paper
    §2.3); with locality most reads that reach the disk component are
    served from here, so the hit path must scale with reader domains. Each
    shard publishes an immutable map snapshot through an [Atomic.t]: a hit
    is a map lookup, a read of the entry's reference bit (written only
    when clear) and a hit count — no mutex, no reference count. The shard
    mutex is taken only on miss, insertion, eviction and reservation.

    {2 Keys}

    Keys are non-negative [int]s, so a lookup builds no key and compares
    machine words; the shard is chosen by {!Clsm_util.Hashing.mix64} of
    the key. Callers pack their own namespace into the key: a table
    reader packs its table id and the block's file offset (see
    [Table]), and retires a closed table with {!remove_range}.

    {2 Entries}

    An entry holds its value. Eviction only unpublishes it: a reader that
    already has the value keeps it, and the GC reclaims it once no reader
    does, so a reader can never observe a freed block.

    {2 Reservations}

    {!reserve} charges weight for data that lives outside the cache's
    value type — an open table's index, filter, properties and footer —
    so the per-open-table RAM a reader keeps hot counts against the
    budget without widening ['a].

    {2 Singleflight}

    {!find_or_add} deduplicates concurrent misses: one caller (the
    winner) runs the loader, everyone else waits on the shard condition
    variable and takes the winner's value from its flight record. A loser
    never installs anything, so it can never overwrite a winner's entry.
    If the winner's loader raises, the waiters re-raise the same
    exception and the next caller retries the load. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  weight : int;  (** resident weight + reserved weight *)
  pins : int;
      (** live reservations across all shards: one per open cached
          table *)
  singleflight_waits : int;
      (** times a reader waited for another reader's in-flight load *)
  readaheads : int;  (** readahead batches issued by table iterators *)
  readahead_blocks : int;  (** blocks fetched by those batches *)
}

val create :
  ?shards:int ->
  ?readahead:int ->
  capacity:int ->
  weight:('a -> int) ->
  unit ->
  'a t
(** [capacity] is the total weight budget across all shards (e.g. bytes);
    [weight] measures each entry. Default [shards] is 16. [readahead] is the
    forward-scan readahead depth in blocks advertised through
    {!readahead_blocks} (default 0 = disabled); the cache only carries the
    policy and counters — table iterators implement the fetch. *)

val find : 'a t -> int -> 'a option
(** Lock-free on hit. The returned value stays valid after the entry is
    evicted. *)

val insert : 'a t -> int -> 'a -> unit
(** Insert or refresh; runs the CLOCK hand until the shard fits its
    budget. Entries heavier than a whole shard are not cached. *)

val find_or_add : 'a t -> int -> (unit -> 'a) -> 'a
(** [find_or_add t k f] returns the cached value or computes, caches and
    returns [f ()]. A hit is {!find}'s. Concurrent callers on the same
    missing key run [f] exactly once per generation: one winner loads,
    losers wait and share the winner's value. A loser never installs its
    own entry (see the singleflight notes above). *)

val remove : 'a t -> int -> unit
(** Drop [key]'s entry if present. *)

val remove_range : 'a t -> lo:int -> hi:int -> unit
(** Drop every entry whose key is in [\[lo, hi)]. Used to retire a
    closing table's blocks eagerly: CLOCK's second chance cannot
    distinguish "recently used, then orphaned" from "hot", so without
    eager invalidation dead blocks would push live data out first.
    Each shard visits only the keys in the range, but takes its mutex:
    meant for rare retirement, not the hot path. *)

val stats : 'a t -> stats
val cardinal : 'a t -> int

(** {2 Reservations} *)

val reserve : 'a t -> int -> int -> unit
(** Charge [weight] against [key]'s shard without storing a value.
    Re-reserving the same key replaces the previous charge. *)

val unreserve : 'a t -> int -> unit

(** {2 Readahead support} *)

val mem : 'a t -> int -> bool
(** Lock-free membership probe that does not touch hit/miss counters or
    reference bits — a scan uses it to tell whether the block it is
    entering is resident before it reads ahead. *)

val readahead_blocks : 'a t -> int
(** The configured forward-scan readahead depth (0 = disabled). *)

val note_readahead : 'a t -> blocks:int -> unit
(** Record one readahead batch that fetched [blocks] blocks. *)

(** {2 Test hooks} *)

val with_shard_locked : 'a t -> int -> (unit -> 'b) -> 'b
(** Run [f] while holding the mutex of [key]'s shard. Used by tests to
    prove the hit path never takes the shard lock: a concurrent {!find}
    on a resident key must complete while [f] is still running. *)
