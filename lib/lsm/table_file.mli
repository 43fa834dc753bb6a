(** A numbered, immutable on-disk table plus its metadata, shared between
    successive versions of the disk component through reference counting.
    When the last version referencing an obsolete file releases it, the
    reader is closed and the file deleted. *)

exception
  Corruption of {
    number : int;  (** table file number — the unit a verdict names *)
    path : string;
    detail : string;  (** which block and how it failed *)
  }
(** Typed classification of a silent-corruption read failure (checksum or
    structural decode), carrying enough to name the file in a verdict. Distinct
    from {!Clsm_env.Env.Error} (transient IO) and {!Clsm_env.Env.Crashed}
    (hard stop). *)

type t = {
  number : int;
  table : Clsm_sstable.Table.t;
  size : int;
  smallest : string; (** smallest internal key, "" when empty *)
  largest : string;
  obsolete : bool Atomic.t;
  env : Clsm_env.Env.t; (** the environment the file was opened through *)
}

val table_path : dir:string -> int -> string
val wal_path : dir:string -> int -> string
val manifest_path : dir:string -> string

val open_number :
  ?cache:Clsm_sstable.Block.t Clsm_sstable.Cache.t ->
  ?env:Clsm_env.Env.t ->
  dir:string ->
  int ->
  t
(** Open table file [number] in [dir] with the internal-key comparator. *)

val typed_corruption : t -> string -> exn
(** The {!Corruption} exception for this file with the given detail. *)

val mark_obsolete : t -> unit
(** The file will be deleted once its last reference is dropped. *)

val release : t -> unit
(** Close the reader and delete the file if marked obsolete. Used as the
    [Refcounted] release hook. *)
