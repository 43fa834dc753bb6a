module Env = Clsm_env.Env

exception
  Corruption of {
    number : int;
    path : string;
    detail : string;
  }

type t = {
  number : int;
  table : Clsm_sstable.Table.t;
  size : int;
  smallest : string;
  largest : string;
  obsolete : bool Atomic.t;
  env : Env.t;
}

let table_path ~dir number = Filename.concat dir (Printf.sprintf "%06d.sst" number)
let wal_path ~dir number = Filename.concat dir (Printf.sprintf "%06d.log" number)
let manifest_path ~dir = Filename.concat dir "MANIFEST"

let open_number ?cache ?(env = Env.unix) ~dir number =
  let path = table_path ~dir number in
  let table =
    Clsm_sstable.Table.open_file ?cache ~env ~cmp:Internal_key.comparator path
  in
  let props = Clsm_sstable.Table.properties table in
  {
    number;
    table;
    size = Clsm_sstable.Table.file_size table;
    smallest = props.Clsm_sstable.Table_format.smallest;
    largest = props.Clsm_sstable.Table_format.largest;
    obsolete = Atomic.make false;
    env;
  }

let typed_corruption t detail =
  Corruption { number = t.number; path = Clsm_sstable.Table.path t.table; detail }

let mark_obsolete t = Atomic.set t.obsolete true

let release t =
  let path = Clsm_sstable.Table.path t.table in
  Clsm_sstable.Table.close t.table;
  if Atomic.get t.obsolete then
    (* Best effort: the file is already unreferenced by any manifest, so a
       failed delete only leaves an orphan for recovery to collect. *)
    try t.env.Env.remove path with _ -> ()
