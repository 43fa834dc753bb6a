(** The maintenance job model.

    Background work on an LSM store is not uniform: a memtable flush
    releases write-ahead log space and unblocks stalled writers, an
    L0→L1 compaction bounds read amplification and the L0 stall/slowdown
    triggers, and deeper compactions only reshape cold data. Following
    Luo & Carey's stability analysis, the store claims jobs in the order

    flush > repair > L0→L1 compaction > deeper-level compactions
    (shallower first) > scrub.

    That order is decided where the jobs are claimed
    ([Clsm_core.Maintenance_hooks.next]), not here. *)

type t =
  | Flush  (** rotate the memtable if needed and merge [C'm] to L0 *)
  | Repair
      (** self-healing: re-verify each table with a pending corruption
          verdict (a clean one stays, a rotten one is discarded), and
          attempt the online transition out of [`Degraded] *)
  | Compact of { src_level : int; target_level : int }
      (** merge one unit of [src_level] into [target_level];
          [src_level = 0] is the L0→L1 merge *)
  | Scrub
      (** incremental background media check: re-verify sstable blocks
          and the WAL tail at a configurable IO budget *)

val pp : Format.formatter -> t -> unit
