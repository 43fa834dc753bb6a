(* The storage environment: every byte the store persists or reads back
   flows through one of these records. The indirection buys a unified
   failure model — all IO failures surface as {!Error} — and lets tests
   substitute {!Faulty_env}, which injects fsync/ENOSPC/torn-write faults
   and hard crash points on a deterministic seeded schedule. *)

exception Error of { op : string; path : string; message : string }
(** Any IO failure: the operation that failed, the path it failed on, and
    the underlying system message. *)

exception Crashed
(** Raised by every operation of an environment that has hit a crash
    point. The directory image is frozen; a simulated restart reopens it
    with a fresh environment. *)

let error ~op ~path message = raise (Error { op; path; message })

let () =
  Printexc.register_printer (function
    | Error { op; path; message } ->
        Some (Printf.sprintf "Env.Error(%s %s: %s)" op path message)
    | Crashed -> Some "Env.Crashed"
    | _ -> None)

let wrap ~op ~path f =
  try f () with
  | Unix.Unix_error (e, _, _) -> error ~op ~path (Unix.error_message e)
  | Sys_error m -> error ~op ~path m
  | End_of_file -> error ~op ~path "unexpected end of file"

(* An append-only output file. [w_close] releases the descriptor without
   syncing and never raises; durability comes only from [w_fsync]. *)
type writer = {
  w_append : string -> unit;
  w_fsync : unit -> unit;
  w_close : unit -> unit;
}

(* A random-access input file (table reads). [rf_read] raises
   [Invalid_argument] on out-of-bounds requests — corruption handling in
   the table reader keys off that, not off {!Error}. *)
type random_file = {
  rf_length : int;
  rf_read : pos:int -> len:int -> string;
  rf_close : unit -> unit;
}

type t = {
  create_writer : string -> writer;  (** create or truncate *)
  open_random : string -> random_file;
  read_file : string -> string;  (** whole file *)
  rename : src:string -> dst:string -> unit;
  remove : string -> unit;
  mkdir : string -> unit;
  file_exists : string -> bool;
  list_dir : string -> string list;
}

(* ---------- the default implementation: plain Unix IO ---------- *)

let really_write fd s ~pos ~len =
  let b = Bytes.unsafe_of_string s in
  let rec go off remaining =
    if remaining > 0 then begin
      let n = Unix.write fd b off remaining in
      go (off + n) (remaining - n)
    end
  in
  go pos len

let unix_create_writer path =
  let fd =
    wrap ~op:"create" ~path (fun () ->
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  let closed = ref false in
  {
    w_append =
      (fun s ->
        wrap ~op:"append" ~path (fun () ->
            really_write fd s ~pos:0 ~len:(String.length s)));
    w_fsync = (fun () -> wrap ~op:"fsync" ~path (fun () -> Unix.fsync fd));
    w_close =
      (fun () ->
        if not !closed then begin
          closed := true;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end);
  }

(* Unaligned 8-byte load and store, compiled inline (no C stub). Callers
   bounds-check first. *)
external map_get64u :
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int64 = "%caml_bigstring_get64u"

external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Copy [n] bytes of [map] at [pos]: 8 bytes a step, then a byte tail. *)
let copy_out map ~pos n =
  let b = Bytes.create n in
  let words_end = n land lnot 7 in
  let i = ref 0 in
  while !i < words_end do
    bytes_set64u b !i (map_get64u map (pos + !i));
    i := !i + 8
  done;
  for j = words_end to n - 1 do
    Bytes.unsafe_set b j (Bigarray.Array1.unsafe_get map (pos + j))
  done;
  Bytes.unsafe_to_string b

let unix_open_random path =
  wrap ~op:"open" ~path (fun () ->
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let len = (Unix.fstat fd).Unix.st_size in
      if len = 0 then begin
        Unix.close fd;
        {
          rf_length = 0;
          rf_read =
            (fun ~pos ~len ->
              if pos = 0 && len = 0 then ""
              else invalid_arg "Env.rf_read: out of bounds");
          rf_close = ignore;
        }
      end
      else begin
        let ga =
          Unix.map_file fd Bigarray.char Bigarray.c_layout false [| len |]
        in
        let map = Bigarray.array1_of_genarray ga in
        Unix.close fd;
        let closed = ref false in
        {
          rf_length = len;
          rf_read =
            (fun ~pos ~len:n ->
              if !closed then invalid_arg "Env.rf_read: closed";
              if pos < 0 || n < 0 || pos + n > len then
                invalid_arg "Env.rf_read: out of bounds";
              copy_out map ~pos n);
          rf_close = (fun () -> closed := true);
        }
      end)

let unix_read_file path =
  wrap ~op:"read" ~path (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let unix : t =
  {
    create_writer = unix_create_writer;
    open_random = unix_open_random;
    read_file = unix_read_file;
    rename =
      (fun ~src ~dst -> wrap ~op:"rename" ~path:src (fun () -> Unix.rename src dst));
    remove = (fun path -> wrap ~op:"remove" ~path (fun () -> Unix.unlink path));
    mkdir = (fun path -> wrap ~op:"mkdir" ~path (fun () -> Unix.mkdir path 0o755));
    file_exists = (fun path -> Sys.file_exists path);
    list_dir =
      (fun path ->
        wrap ~op:"list_dir" ~path (fun () -> Array.to_list (Sys.readdir path)));
  }

let publish env ~path contents =
  let tmp = path ^ ".tmp" in
  let w = env.create_writer tmp in
  Fun.protect
    ~finally:(fun () -> w.w_close ())
    (fun () ->
      w.w_append contents;
      w.w_fsync ());
  env.rename ~src:tmp ~dst:path
