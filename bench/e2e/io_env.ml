(* A counting (and, in the traced phase, timing) wrapper around an
   [Env.t], handed to the store through [Options.env]. Every byte the
   store writes or reads and every fsync is attributed to the kind of file
   it touched, after stripping the [.tmp] suffix builders stage under:
   [*.log] (WAL), [*.sst] (tables) or [MANIFEST]. [write_amp] and the
   [env.*] metrics come from here.

   It also tracks how much of each written file an fsync covered, so a
   simulated crash can drop every unsynced byte: killing a process keeps
   the OS page cache, so without this a write that was never made durable
   would survive the "crash". *)

open Clsm_env

(* Indices into the counter arrays. *)
let wal = Tracer.wal_file
let sst = 1
let manifest = 2
let other = 3
let kind_names = [| "wal"; "sst"; "manifest"; "other" |]

let kind_of_path path =
  let base = Filename.basename path in
  let base =
    if Filename.check_suffix base ".tmp" then Filename.chop_suffix base ".tmp"
    else base
  in
  if Filename.check_suffix base ".log" then wal
  else if Filename.check_suffix base ".sst" then sst
  else if base = "MANIFEST" then manifest
  else other

(* A file being written: bytes appended, and bytes the last fsync
   covered. The store serializes the appends and fsyncs of one file. *)
type file = { mutable written : int; mutable synced : int }

type counters = {
  write_bytes : int Atomic.t array;
  fsyncs : int Atomic.t array;
  read_calls : int Atomic.t array;
  read_bytes : int Atomic.t array;
  files : (string, file) Hashtbl.t;
  files_mu : Mutex.t;
}

type snapshot = {
  s_write_bytes : int array;
  s_fsyncs : int array;
  s_read_calls : int array;
  s_read_bytes : int array;
}

let counters () =
  let make () = Array.init 4 (fun _ -> Atomic.make 0) in
  {
    write_bytes = make ();
    fsyncs = make ();
    read_calls = make ();
    read_bytes = make ();
    files = Hashtbl.create 64;
    files_mu = Mutex.create ();
  }

let snapshot c =
  let read = Array.map Atomic.get in
  {
    s_write_bytes = read c.write_bytes;
    s_fsyncs = read c.fsyncs;
    s_read_calls = read c.read_calls;
    s_read_bytes = read c.read_bytes;
  }

let diff a b =
  let sub = Array.map2 ( - ) in
  {
    s_write_bytes = sub a.s_write_bytes b.s_write_bytes;
    s_fsyncs = sub a.s_fsyncs b.s_fsyncs;
    s_read_calls = sub a.s_read_calls b.s_read_calls;
    s_read_bytes = sub a.s_read_bytes b.s_read_bytes;
  }

let total a = Array.fold_left ( + ) 0 a

let add counter kind n = ignore (Atomic.fetch_and_add counter.(kind) n : int)

(* What a machine crash leaves of the files written through [c]: each
   keeps only its fsync-covered prefix. Call once the store is
   abandoned. *)
let drop_unsynced c =
  Mutex.protect c.files_mu (fun () ->
      Hashtbl.iter
        (fun path f -> if f.synced < f.written then Unix.truncate path f.synced)
        c.files)

let wrap c (base : Env.t) : Env.t =
  let timed ~file_kind ~op ~bytes f =
    let start = Tracer.io_start () in
    let r = f () in
    Tracer.io_end ~file_kind ~op ~bytes start;
    r
  in
  let track f = Mutex.protect c.files_mu (fun () -> f c.files) in
  let create_writer path =
    let kind = kind_of_path path in
    let w = base.create_writer path in
    let file = { written = 0; synced = 0 } in
    track (fun files -> Hashtbl.replace files path file);
    {
      Env.w_append =
        (fun s ->
          let n = String.length s in
          timed ~file_kind:kind ~op:Tracer.Append ~bytes:n (fun () -> w.w_append s);
          file.written <- file.written + n;
          add c.write_bytes kind n);
      w_fsync =
        (fun () ->
          let written = file.written in
          timed ~file_kind:kind ~op:Tracer.Fsync ~bytes:0 w.w_fsync;
          file.synced <- written;
          add c.fsyncs kind 1);
      w_close = w.w_close;
    }
  in
  (* A file keeps its durability state under its new name. *)
  let rename ~src ~dst =
    base.rename ~src ~dst;
    track (fun files ->
        Option.iter
          (fun f ->
            Hashtbl.remove files src;
            Hashtbl.replace files dst f)
          (Hashtbl.find_opt files src))
  in
  let remove path =
    base.remove path;
    track (fun files -> Hashtbl.remove files path)
  in
  let read kind n =
    add c.read_calls kind 1;
    add c.read_bytes kind n
  in
  let open_random path =
    let kind = kind_of_path path in
    let f = base.open_random path in
    {
      f with
      Env.rf_read =
        (fun ~pos ~len ->
          let s =
            timed ~file_kind:kind ~op:Tracer.Read ~bytes:len (fun () ->
                f.rf_read ~pos ~len)
          in
          read kind len;
          s);
    }
  in
  let read_file path =
    let kind = kind_of_path path in
    let start = Tracer.io_start () in
    let s = base.read_file path in
    Tracer.io_end ~file_kind:kind ~op:Tracer.Read ~bytes:(String.length s) start;
    read kind (String.length s);
    s
  in
  { base with create_writer; open_random; read_file; rename; remove }
