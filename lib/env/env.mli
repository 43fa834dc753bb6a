(** Pluggable storage environment.

    All file IO the store performs — WAL appends, table builds, manifest
    saves, recovery reads, directory listing — goes through a value of
    type {!t}. The default {!unix} implementation does plain [Unix] IO;
    {!Faulty_env} wraps it to inject failures and crash points on a
    deterministic seeded schedule, which is how the crash-recovery
    torture harness exercises every IO site. *)

exception Error of { op : string; path : string; message : string }
(** Unified IO failure: which operation, on which path, and why. Raised in
    place of [Unix.Unix_error] / [Sys_error] by every operation. *)

exception Crashed
(** The environment hit a hard crash point. All further operations raise;
    the on-disk image is frozen as the crash left it. *)

(** Append-only output file. Durability comes only from [w_fsync];
    [w_close] releases the descriptor without syncing and never raises. *)
type writer = {
  w_append : string -> unit;
  w_fsync : unit -> unit;
  w_close : unit -> unit;
}

(** Random-access input file. [rf_read] raises [Invalid_argument] on
    out-of-bounds requests (the table reader maps that to [Corrupt]). *)
type random_file = {
  rf_length : int;
  rf_read : pos:int -> len:int -> string;
  rf_close : unit -> unit;
}

type t = {
  create_writer : string -> writer;  (** create or truncate for appending *)
  open_random : string -> random_file;
  read_file : string -> string;  (** read the whole file *)
  rename : src:string -> dst:string -> unit;
  remove : string -> unit;
  mkdir : string -> unit;
  file_exists : string -> bool;
  list_dir : string -> string list;
}

val unix : t
(** The production environment: direct [Unix] IO, tables read through
    [mmap]. *)

val publish : t -> path:string -> string -> unit
(** Replace the file at [path] with [contents] atomically: write
    [path ^ ".tmp"], fsync it, close it, then rename it over [path]. On
    failure the temp file's descriptor is still released, the error
    propagates, and [path] is untouched; only the [.tmp] is left for
    the caller's recovery to delete. *)
