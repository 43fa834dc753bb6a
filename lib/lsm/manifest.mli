(** Durable description of the store's disk state, rewritten atomically
    (write-temp + fsync + rename) on every version installation. Together
    with the write-ahead logs this is everything recovery needs. *)

type t = {
  next_file_number : int;
  last_ts : int; (** highest timestamp issued before the save *)
  wal_number : int; (** active write-ahead log to replay on recovery *)
  files : (int * int) list; (** (level, table number); level 0 newest first *)
}

val save : ?env:Clsm_env.Env.t -> dir:string -> t -> int
(** Returns the bytes written. Raises {!Clsm_env.Env.Error} on IO failure; the previous manifest is
    then still in place (the temp file never replaces it). *)

val load : ?env:Clsm_env.Env.t -> dir:string -> unit -> (t * int list) option
(** The manifest, and the table numbers under its [quarantine <n>]
    records: a store written before corruption verdicts were settled in
    place took a suspect table out of the version and listed it there.
    {!save} writes no such record, so the list is empty for every
    manifest written since. [None] when no manifest exists (fresh
    store). Raises [Failure] on a corrupt manifest (CRC mismatch or
    malformed contents). *)
