type t = {
  name : string;
  put : key:string -> value:string -> unit;
  get : string -> string option;
  delete : key:string -> unit;
  scan : start:string -> limit:int -> (string * string) list;
  put_if_absent : key:string -> value:string -> bool;
  compact : unit -> unit;
  close : unit -> unit;
  stats_json : unit -> string option;
}

let of_clsm db =
  let module Db = Clsm_core.Db in
  {
    name = "clsm";
    put = (fun ~key ~value -> Db.put db ~key ~value);
    get = (fun key -> Db.get db key);
    delete = (fun ~key -> Db.delete db ~key);
    scan = (fun ~start ~limit -> Db.range ~start ~limit db);
    put_if_absent = (fun ~key ~value -> Db.put_if_absent db ~key ~value);
    compact = (fun () -> Db.compact_now db);
    close = (fun () -> Db.close db);
    stats_json = (fun () -> Some (Clsm_core.Stats.to_json (Db.stats db)));
  }

let of_single_writer st =
  let module S = Clsm_baselines.Single_writer_store in
  {
    name = "single-writer";
    put = (fun ~key ~value -> S.put st ~key ~value);
    get = (fun key -> S.get st key);
    delete = (fun ~key -> S.delete st ~key);
    scan = (fun ~start ~limit -> S.range ~start ~limit st);
    put_if_absent = (fun ~key ~value -> S.put_if_absent st ~key ~value);
    compact = (fun () -> S.compact_now st);
    close = (fun () -> S.close st);
    stats_json = (fun () -> Some (Clsm_core.Stats.to_json (S.stats st)));
  }

let of_striped striped =
  let module R = Clsm_baselines.Striped_rmw in
  let st = R.store striped in
  let module S = Clsm_baselines.Single_writer_store in
  {
    name = "striped-rmw";
    put = (fun ~key ~value -> R.put striped ~key ~value);
    get = (fun key -> R.get striped key);
    delete = (fun ~key -> R.delete striped ~key);
    scan = (fun ~start ~limit -> S.range ~start ~limit st);
    put_if_absent = (fun ~key ~value -> R.put_if_absent striped ~key ~value);
    compact = (fun () -> S.compact_now st);
    close = (fun () -> S.close st);
    stats_json = (fun () -> Some (Clsm_core.Stats.to_json (S.stats st)));
  }

let open_clsm opts = of_clsm (Clsm_core.Db.open_store opts)

let open_single_writer opts =
  of_single_writer (Clsm_baselines.Single_writer_store.open_store opts)

let open_striped opts =
  of_striped
    (Clsm_baselines.Striped_rmw.create
       (Clsm_baselines.Single_writer_store.open_store opts))
