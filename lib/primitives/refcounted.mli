(** Per-component reference counting (paper §3.1), kept only where a
    release frees something outside the heap: a disk version's table
    files (descriptors closed, obsolete files unlinked) and the files
    themselves. Memory is the GC's, so a component whose release would
    free nothing — a memtable, a cached block — carries no count; that is
    why [release] is required.

    A cell is created with one owner reference. Readers take extra
    references through {!Rcu_box.acquire}; the owner drops its reference
    with {!retire}. [release] runs exactly once, when the count reaches
    zero. *)

type 'a t

val create : release:('a -> unit) -> 'a -> 'a t

val value : 'a t -> 'a
(** The payload. Valid only while holding a reference. *)

val try_incr : 'a t -> bool
(** Take a reference. Returns [false] if the count had already dropped to
    zero (the component is being released) — the caller must retry via the
    enclosing {!Rcu_box} protocol. *)

val decr : 'a t -> unit
(** Drop a reference, running [release] if this was the last one. *)

val retire : 'a t -> unit
(** Drop the owner reference (alias of {!decr}, named for call-site
    clarity). *)

val count : 'a t -> int
(** Instantaneous reference count (for tests). *)
