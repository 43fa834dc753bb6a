(** LevelDB-style baseline: {!Clsm_core.Db} under LevelDB's concurrency
    control — "coarse-grained synchronization that forces all puts to be
    executed sequentially" (paper §6). One global mutex is held across
    every write; reads take it once (as LevelDB pins its components
    under [mutex_]) and release it before searching.

    The memtable, WAL, tables, compaction, recovery and [Options.env]
    are cLSM's own, so a comparison against {!Clsm_core.Db} differs in
    the discipline alone. This is the competitor for the write/read
    scalability comparisons (Figures 5–8) and, via {!Striped_rmw}, the
    lock-striping RMW baseline of Figure 9.

    One known divergence from LevelDB: a writer parked in the store's
    hard stall holds the mutex, so reads wait behind it, whereas
    LevelDB's writer releases [mutex_] while it waits. *)

type t

val open_store : Clsm_core.Options.t -> t
val close : t -> unit

val put : t -> key:string -> value:string -> unit
val delete : t -> key:string -> unit
val get : t -> string -> string option

val put_if_absent : t -> key:string -> value:string -> bool
(** Read, then put if absent, both under the global mutex, so no write
    interleaves. [true] if this call installed [value]. *)

type snapshot

val get_snap : t -> snapshot
val snapshot_ts : snapshot -> int
val release_snapshot : t -> snapshot -> unit
val get_at : t -> snapshot -> string -> string option

val range :
  ?snapshot:snapshot ->
  ?start:string ->
  ?stop:string ->
  ?limit:int ->
  t ->
  (string * string) list

val compact_now : t -> unit
val stats : t -> Clsm_core.Stats.snapshot
val level_file_counts : t -> int list

val verify_integrity : t -> string list
(** {!Clsm_core.Db.verify_integrity}: empty when every table is clean. *)
