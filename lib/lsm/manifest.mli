(** Durable description of the store's disk state, rewritten atomically
    (write-temp + fsync + rename) on every version installation. Together
    with the write-ahead logs this is everything recovery needs. *)

type t = {
  next_file_number : int;
  last_ts : int; (** highest timestamp issued before the save *)
  wal_number : int; (** active write-ahead log to replay on recovery *)
  files : (int * int) list; (** (level, table number); level 0 newest first *)
  quarantined : int list;
      (** table numbers pulled from the read view after a corruption
          verdict: recovery neither opens nor garbage-collects them *)
}

val save : ?env:Clsm_env.Env.t -> dir:string -> t -> int
(** Returns the bytes written. Raises {!Clsm_env.Env.Error} on IO failure; the previous manifest is
    then still in place (the temp file never replaces it). *)

val load : ?env:Clsm_env.Env.t -> dir:string -> unit -> t option
(** [None] when no manifest exists (fresh store). Raises [Failure] on a
    corrupt manifest (CRC mismatch or malformed contents). *)
