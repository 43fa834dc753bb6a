(** Lock-free concurrent skip-list, insert-only.

    This is the in-memory map data structure assumed by the paper (§3):
    thread-safe, non-blocking, sorted, supporting weakly-consistent
    iteration. Items are never removed (obsolete versions disappear only
    when a whole memory component is discarded after its merge), which is
    exactly the cLSM usage and is what makes the lock-free algorithm simple:
    insertion publishes a node with a single CAS on the bottom-level
    predecessor link and then links upper levels best-effort, as in
    Herlihy & Shavit's lazy skip-list restricted to inserts.

    The {!module-type:S.Raw} sub-interface exposes the bottom-level
    predecessor search and CAS used to implement the paper's Algorithm 3
    (non-blocking atomic read-modify-write). *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type key
  type 'v t

  val create : ?max_height:int -> ?seed:int -> unit -> 'v t
  (** [max_height] bounds the tower height (default 20, branching factor 4 —
      ample beyond 10^12 entries); [seed] fixes the height PRNG for
      reproducible tests. *)

  val insert : 'v t -> key -> 'v -> bool
  (** [insert t k v] links a new node. Returns [false] (and changes nothing)
      if [k] is already present — cLSM memtables never overwrite because
      every version gets a fresh timestamped key. Lock-free. *)

  val find : 'v t -> key -> 'v option
  (** Exact lookup. Wait-free (traversal only). *)

  val find_le : 'v t -> key -> (key * 'v) option
  (** Greatest binding [<= k], e.g. the newest version of a user key when
      versions are ordered by ascending timestamp and probed at [(k, ∞)]. *)

  val find_ge : 'v t -> key -> (key * 'v) option
  (** Least binding [>= k] (range-scan seek). *)

  val is_empty : 'v t -> bool

  val length : 'v t -> int
  (** O(n): counts bottom-level nodes. *)

  val iter : (key -> 'v -> unit) -> 'v t -> unit
  (** In-order, weakly consistent: every binding present for the whole
      traversal is visited exactly once. *)

  val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  val to_list : 'v t -> (key * 'v) list

  (** Weakly-consistent forward cursor over the bottom level. *)
  module Cursor : sig
    type 'v cursor

    val make : 'v t -> 'v cursor
    (** Positioned before the first binding; call {!seek_first} or {!seek}. *)

    val seek_first : 'v cursor -> unit
    val seek : 'v cursor -> key -> unit
    (** Position at the least binding [>= k] (invalid if none). *)

    val valid : 'v cursor -> bool
    val key : 'v cursor -> key
    (** The current binding's key. Raises [Invalid_argument] if not
        {!valid}. *)

    val value : 'v cursor -> 'v
    (** The current binding's value. Raises [Invalid_argument] if not
        {!valid}. *)

    val next : 'v cursor -> unit
    (** Advance; no-op if already invalid. *)
  end

  (** Bottom-level internals for Algorithm 3 (atomic read-modify-write). *)
  module Raw : sig
    type 'v location

    val locate : 'v t -> key -> 'v location
    (** [locate t k] finds the bottom-level insertion point for [k]: the
        node with the greatest key [<= k] (the paper's [prev], line 5 of
        Algorithm 3) and its successor (line 7). *)

    val prev_binding : 'v location -> (key * 'v) option
    (** Binding of [prev], or [None] if [prev] is the head sentinel. *)

    val succ_binding : 'v location -> (key * 'v) option
    (** Binding of the successor, or [None] at the end of the list. *)

    val try_insert : 'v t -> 'v location -> key -> 'v -> bool
    (** [try_insert t loc k v] publishes [(k, v)] between the located
        predecessor and successor with a single CAS on the predecessor's
        bottom link (line 12 of Algorithm 3), then links upper levels.
        Fails (returning [false]) iff the predecessor's link changed since
        {!locate} — the caller re-runs its conflict detection and retries.
        The key must satisfy [prev < k < succ]; checked with assertions. *)
  end
end

module Make (Key : ORDERED) : S with type key = Key.t
