(** One change to the disk component: the unit the store installs.

    Every flush, compaction and discard of a rotten table is described
    by one edit — table numbers to drop and files to add at a level —
    and applied by {!Version.apply}. The store commits edits through a
    single install step, so the crash-ordering rules live in one place.
    An edit with no fields set is a plain manifest commit. *)

type file = Table_file.t Clsm_primitives.Refcounted.t

type t = {
  removed : int list;  (** table numbers to drop, at whatever level *)
  added : (int * file) list;
      (** [(level, file)]: level-0 files are prepended (newest first, in
          list order); deeper levels are kept sorted by smallest key *)
}

val empty : t
