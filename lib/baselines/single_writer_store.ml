(* LevelDB's discipline over cLSM's substrate: one {!Clsm_core.Db} and
   one global mutex. Writers hold the mutex across the whole store call,
   so they run one at a time and the store's shared lock, getTS and
   Active set are never contended; readers take it once, as LevelDB
   pins mem/imm/current under [mutex_], then search without it.

   Known divergence: a writer parked in the store's hard stall holds the
   mutex, so reads queue behind it. LevelDB's writer releases [mutex_]
   while it waits on [bg_cv_]. [close] needs no mutex: {!Db.close}
   waits out the writes in flight itself. *)

open Clsm_core

type t = { db : Db.t; mutex : Mutex.t }
type snapshot = Db.snapshot

let with_mutex t f = Mutex.protect t.mutex f
let open_store opts = { db = Db.open_store opts; mutex = Mutex.create () }
let close t = Db.close t.db
let put t ~key ~value = with_mutex t (fun () -> Db.put t.db ~key ~value)
let delete t ~key = with_mutex t (fun () -> Db.delete t.db ~key)

let put_if_absent t ~key ~value =
  with_mutex t (fun () ->
      match Db.get t.db key with
      | Some _ -> false
      | None ->
          Db.put t.db ~key ~value;
          true)

let get t key =
  with_mutex t ignore;
  Db.get t.db key

let get_snap t = with_mutex t (fun () -> Db.get_snap t.db)
let snapshot_ts = Db.snapshot_ts
let release_snapshot t s = Db.release_snapshot t.db s

let get_at t s key =
  with_mutex t ignore;
  Db.get_at t.db s key

let range ?snapshot ?start ?stop ?limit t =
  match snapshot with
  | Some _ -> Db.range ?snapshot ?start ?stop ?limit t.db
  | None ->
      let s = get_snap t in
      Fun.protect
        ~finally:(fun () -> release_snapshot t s)
        (fun () -> Db.range ~snapshot:s ?start ?stop ?limit t.db)

let compact_now t = Db.compact_now t.db
let stats t = Db.stats t.db
let level_file_counts t = Db.level_file_counts t.db
let verify_integrity t = Db.verify_integrity t.db
