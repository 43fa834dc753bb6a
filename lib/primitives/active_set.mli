(** Lock-free multiset of timestamps with a minimum query — the paper's
    [Active] set of in-flight write timestamps.

    A fixed array of atomic slots (0 = empty). Each domain leases a
    {e home} index on its first {!add} from one process-wide table of
    {!homes} entries and returns it when the domain exits, so live
    domains hold distinct, low indices. [add] claims the home slot (home
    modulo capacity) with a CAS, probing linearly past taken slots;
    [remove] clears it in O(1) via the returned handle. Each set keeps a
    high-water mark one past the highest slot ever claimed, raised
    {e before} the publishing CAS, and the queries read only the slots
    below it: with one entry per domain that is O(peak live domains),
    whatever the capacity. Capacity only bounds how many timestamps can
    be published at once. Correctness does not rest on one entry per
    domain: a domain's second entry probes on from its home. *)

type t
type handle

val homes : int
(** Size of the home-index lease table: the runtime's domain limit. *)

val create : ?capacity:int -> unit -> t
(** Default capacity: 1024 slots. Raises [Invalid_argument] if
    [capacity < 1]. *)

val add : t -> int -> handle
(** [add t ts] publishes timestamp [ts] (must be [> 0]) and returns a handle
    for O(1) removal. Spins with backoff if the set is momentarily full.

    Ordering: a query that misses the new entry because it loaded the
    high-water mark (or the slot) before the entry was published is
    ordered, with everything it did before, ahead of any load the
    caller makes after [add] returns — the store-load handshake
    [getTS] relies on. *)

val remove : t -> handle -> unit
(** Unpublish the timestamp behind [handle]. A handle must be removed
    exactly once. *)

val remove_value : t -> int -> bool
(** [remove_value t ts] removes one occurrence of [ts], returning [false] if
    not present. O({!span}); for tests and the snapshot-release API. *)

val find_min : t -> int option
(** Smallest published timestamp, or [None] if the set is empty.
    O({!span}). *)

val mem : t -> int -> bool

val values : t -> int list
(** All currently published timestamps, ascending (duplicates preserved).
    Weakly consistent under concurrency, like {!find_min}. *)

val cardinal : t -> int
(** Instantaneous count of published timestamps (O({!span})). *)

val span : t -> int
(** Slots {!find_min} reads: one past the highest slot ever claimed.
    Never shrinks; with at most one entry per domain it is bounded by
    the peak number of homes leased at once, process-wide. *)
