(** Uniform operation surface over everything the lincheck harness can
    drive, plus the recorder hook that instruments it.

    A target is a record of closures; optional fields degrade gracefully
    (the stress driver substitutes a put when [rmw] is unsupported, and
    skips scans when [scan] is absent). {!instrument} wraps a target so
    every call logs an invocation/response event into the per-domain
    buffer — build one instrumented copy per worker domain. *)

type ops = {
  name : string;
  get : string -> string option;
  put : key:string -> value:string -> unit;
  delete : key:string -> unit;
  rmw :
    (key:string -> (string option -> History.decision) -> string option)
    option;
  put_if_absent : (key:string -> value:string -> bool) option;
  scan : (unit -> int option * (string * string) list) option;
      (** full-range scan: snapshot timestamp (when exposed) + bindings *)
  compact : (unit -> unit) option;
      (** synchronous flush + compaction, for the chaos schedule *)
}

module Of_store (S : Clsm_core.Store_sig.S) : sig
  val ops : ?name:string -> S.t -> ops
  (** Any [Store_sig.S] implementation — {!Clsm_core.Db} (the cLSM
      store) or the range-shard router {!Clsm_core.Sharded_db}. Scans
      read through a fresh snapshot and report its timestamp. *)
end

val of_memtable : unit -> ops
(** A bare {!Clsm_core.Memtable} (the lock-free skip-list with versioned
    keys) driven directly: writes draw timestamps from a private
    {!Clsm_core.Clock} through the store's [getTS]/RMW-fence handshake,
    and RMW runs the Algorithm-3 locate/conflict-check/CAS-install loop
    with no store around it. No scans (memtable iteration is only weakly
    consistent, by design). *)

val of_single_writer : Clsm_baselines.Single_writer_store.t -> ops
(** The LevelDB-style baseline: puts, deletes and put-if-absent under its
    global mutex, and snapshot scans. No RMW (the stress driver puts
    instead). *)

val of_striped : Clsm_baselines.Striped_rmw.t -> ops
(** The Figure 9 lock-striping baseline — a known-good reference. *)

val of_broken : Clsm_baselines.Broken_store.t -> ops
(** The deliberately racy store — the checker must flag it. *)

val instrument : History.dom -> ops -> ops
(** Record every operation through [dom]. RMW records the pre-image
    returned by the successful attempt and the decision of the final
    invocation of the user function. *)
