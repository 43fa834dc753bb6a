(** One change to the disk component: the unit the store installs.

    Every flush, compaction, quarantine and readmission is described by
    one edit — table numbers to drop, files to add at a level, and
    quarantine-ledger entries to add and to clear — and applied by
    {!Version.apply}. The store commits edits through a single install
    step, so the crash-ordering rules live in one place. An edit with no
    fields set is a plain manifest commit. *)

type file = Table_file.t Clsm_primitives.Refcounted.t

type t = {
  removed : int list;  (** table numbers to drop, at whatever level *)
  added : (int * file) list;
      (** [(level, file)]: level-0 files are prepended (newest first, in
          list order); deeper levels are kept sorted by smallest key *)
  quarantine_add : int list;
      (** ledger entries to record: tables pulled from the read view
          after a corruption verdict (also listed in [removed]) *)
  quarantine_clear : int list;  (** ledger entries resolved by repair *)
}

val empty : t
