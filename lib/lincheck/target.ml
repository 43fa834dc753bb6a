type ops = {
  name : string;
  get : string -> string option;
  put : key:string -> value:string -> unit;
  delete : key:string -> unit;
  rmw :
    (key:string -> (string option -> History.decision) -> string option)
    option;
  put_if_absent : (key:string -> value:string -> bool) option;
  scan : (unit -> int option * (string * string) list) option;
  compact : (unit -> unit) option;
}

module Of_store (S : Clsm_core.Store_sig.S) = struct
  let ops ?(name = "store") t =
    {
      name;
      get = (fun key -> S.get t key);
      put = (fun ~key ~value -> S.put t ~key ~value);
      delete = (fun ~key -> S.delete t ~key);
      rmw =
        Some
          (fun ~key f ->
            S.rmw t ~key (fun pre ->
                match f pre with
                | History.Set v -> S.Set v
                | History.Remove -> S.Remove
                | History.Abort -> S.Abort));
      put_if_absent = Some (fun ~key ~value -> S.put_if_absent t ~key ~value);
      scan =
        Some
          (fun () ->
            let snap = S.get_snap t in
            let bindings = S.range ~snapshot:snap t in
            let ts = S.snapshot_ts snap in
            S.release_snapshot t snap;
            (Some ts, bindings));
      compact = Some (fun () -> S.compact_now t);
    }
end

let of_memtable () =
  let open Clsm_lsm in
  let module Clock = Clsm_core.Clock in
  let m = Clsm_core.Memtable.create () in
  (* The store's own clock supplies the getTS handshake: without it, a
     put that drew a timestamp but has not yet inserted is invisible to a
     concurrent RMW, which then installs a newer version on top — the put
     lands beneath it and is lost unobserved. *)
  let clock = Clock.create () in
  let value_of = function
    | Some (_, Entry.Value v) -> Some v
    | Some (_, Entry.Tombstone) | None -> None
  in
  let write key entry =
    let ts, h, hp = Clock.get_put_ts clock in
    Clsm_core.Memtable.add m ~user_key:key ~ts entry;
    Clock.end_put clock ~active:h ~put:hp
  in
  let rmw ~key f =
    (* Algorithm 3 against the bare memtable: read newest, decide, draw a
       timestamp, fence out and drain older in-flight writers, locate the
       insertion point, conflict-check the predecessor timestamp,
       CAS-install; retry on either conflict. *)
    let rec attempt () =
      let latest =
        Clsm_core.Memtable.get m ~user_key:key ~snap_ts:Internal_key.max_ts
      in
      let seen_ts = match latest with Some (ts, _) -> ts | None -> 0 in
      let pre = value_of latest in
      match f pre with
      | History.Abort -> pre
      | decision ->
          let entry =
            match decision with
            | History.Set v -> Entry.Value v
            | History.Remove -> Entry.Tombstone
            | History.Abort -> assert false
          in
          let ts, h = Clock.get_ts clock in
          Clock.rmw_fence clock ~ts;
          let prev_ts, loc = Clsm_core.Memtable.locate_rmw m ~user_key:key in
          let installed =
            (match prev_ts with Some p -> p <= seen_ts | None -> true)
            && Clsm_core.Memtable.try_install m loc ~user_key:key ~ts entry
          in
          Clock.end_op clock h;
          if installed then pre else attempt ()
    in
    attempt ()
  in
  {
    name = "memtable";
    get =
      (fun key ->
        value_of
          (Clsm_core.Memtable.get m ~user_key:key
             ~snap_ts:Internal_key.max_ts));
    put = (fun ~key ~value -> write key (Entry.Value value));
    delete = (fun ~key -> write key Entry.Tombstone);
    rmw = Some rmw;
    put_if_absent =
      Some
        (fun ~key ~value ->
          let installed = ref false in
          ignore
            (rmw ~key (function
              | Some _ ->
                  installed := false;
                  History.Abort
              | None ->
                  installed := true;
                  History.Set value));
          !installed);
    scan = None;
    compact = None;
  }

(* A full-range scan through a fresh snapshot of the single-writer
   baseline, reporting the snapshot's timestamp. *)
let single_writer_scan base () =
  let module S = Clsm_baselines.Single_writer_store in
  let snap = S.get_snap base in
  let bindings = S.range ~snapshot:snap base in
  let ts = S.snapshot_ts snap in
  S.release_snapshot base snap;
  (Some ts, bindings)

let of_single_writer st =
  let module S = Clsm_baselines.Single_writer_store in
  {
    name = "single-writer";
    get = (fun key -> S.get st key);
    put = (fun ~key ~value -> S.put st ~key ~value);
    delete = (fun ~key -> S.delete st ~key);
    rmw = None;
    put_if_absent = Some (fun ~key ~value -> S.put_if_absent st ~key ~value);
    scan = Some (single_writer_scan st);
    compact = Some (fun () -> S.compact_now st);
  }

let of_striped st =
  let module R = Clsm_baselines.Striped_rmw in
  let module S = Clsm_baselines.Single_writer_store in
  let base = R.store st in
  {
    name = "striped-rmw";
    get = (fun key -> R.get st key);
    put = (fun ~key ~value -> R.put st ~key ~value);
    delete = (fun ~key -> R.delete st ~key);
    rmw =
      Some
        (fun ~key f ->
          R.rmw st ~key (fun pre ->
              match f pre with
              | History.Set v -> R.Set v
              | History.Remove -> R.Remove
              | History.Abort -> R.Abort));
    put_if_absent = Some (fun ~key ~value -> R.put_if_absent st ~key ~value);
    scan = Some (single_writer_scan base);
    compact = Some (fun () -> S.compact_now base);
  }

let of_broken bs =
  let module B = Clsm_baselines.Broken_store in
  {
    name = "broken";
    get = (fun key -> B.get bs key);
    put = (fun ~key ~value -> B.put bs ~key ~value);
    delete = (fun ~key -> B.delete bs ~key);
    rmw =
      Some
        (fun ~key f ->
          B.rmw bs ~key (fun pre ->
              match f pre with
              | History.Set v -> B.Set v
              | History.Remove -> B.Remove
              | History.Abort -> B.Abort));
    put_if_absent = Some (fun ~key ~value -> B.put_if_absent bs ~key ~value);
    scan = Some (fun () -> (None, B.scan bs));
    compact = None;
  }

let instrument dom ops =
  let timed key mk_op run =
    let inv = History.dom_seq dom in
    let result = run () in
    let res = History.dom_seq dom in
    History.record dom ~key ~inv ~res (mk_op result);
    result
  in
  {
    ops with
    get = (fun key -> timed key (fun r -> History.Get r) (fun () -> ops.get key));
    put =
      (fun ~key ~value ->
        timed key (fun () -> History.Put value) (fun () -> ops.put ~key ~value));
    delete =
      (fun ~key ->
        timed key (fun () -> History.Delete) (fun () -> ops.delete ~key));
    rmw =
      Option.map
        (fun rmw ~key f ->
          let last = ref History.Abort in
          timed key
            (fun pre -> History.Rmw { pre; decision = !last })
            (fun () ->
              rmw ~key (fun pre ->
                  let d = f pre in
                  last := d;
                  d)))
        ops.rmw;
    put_if_absent =
      Option.map
        (fun pia ~key ~value ->
          timed key
            (fun won -> History.Put_if_absent { value; won })
            (fun () -> pia ~key ~value))
        ops.put_if_absent;
    scan =
      Option.map
        (fun scan () ->
          let inv = History.dom_seq dom in
          let ((snap_ts, bindings) as r) = scan () in
          let res = History.dom_seq dom in
          History.record_scan dom ~inv ~res ~snap_ts bindings;
          r)
        ops.scan;
  }
