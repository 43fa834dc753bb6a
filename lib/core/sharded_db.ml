(* The range-shard router: N independent cLSM instances behind one
   {!Store_sig.S}, each owning a contiguous key range and a private
   directory, all drawing timestamps from ONE shared {!Clock} — so the
   union of their histories is a single serializable history and one
   fenced snapshot timestamp is consistent across every shard.

   Point operations route to the owning shard and inherit its lock-free
   paths unchanged; contended structures (memtable, WAL tail, flush
   pipeline) multiply by N. Cross-shard consistency costs exactly one
   extra lock:

   - [get_snap] runs ONE [Clock.snapshot] fence and registers ONE
     registry entry; every shard reads through that same snapshot (it
     is fenced on their shared clock), with no fence or registration of
     its own.
   - [write_batch] stamps each shard's sub-batch with a bare
     [Clock.batch_ts] (no Active registration) — legal only while no
     snapshot fence can observe the written keys. The router-level
     shared-exclusive lock provides that exclusion: batches hold it in
     SHARED mode (batches on different shards proceed concurrently;
     same-shard batches serialize on the shard's own exclusive lock),
     cross-shard [get_snap] holds it in EXCLUSIVE mode. No snapshot
     timestamp can land between two sub-batches of one router batch,
     so the batch is atomic under every router snapshot. Plain [get]s
     do not take the lock and may observe a prefix, exactly like the
     single-store contract.
   - Deadlock-freedom: router [get_snap] takes no shard lock; a router
     batch holds router-shared and at most one shard-exclusive at a
     time; shards never take the router lock.
   - Lifecycle: the router's own cell only ever goes [Open] ->
     [Closing] -> [Closed]. [close] drains router batches through the
     exclusive mode of the batch lock, as a shard drains its puts, so
     no batch is cut by it; then it stops the pool and closes every
     shard. Point operations check the owning shard's cell only.

   Maintenance is arbitrated by ONE shared scheduler: shards are opened
   with [Db.open_shard] (no private pools), their wake signals are
   re-pointed at the shared pool, and the pool's [next] round-robins
   over shards' claim queues, pairing each claim with its shard index so
   claim bookkeeping stays inside the owning shard. *)

open Clsm_primitives
open Clsm_lsm
module Env = Clsm_env.Env
module Job = Clsm_maintenance.Job
module Scheduler = Clsm_maintenance.Scheduler

(* ---------- the persisted sharding layout ---------- *)

(* The SHARDING file in the root directory records the boundary keys
   (hex, one per line) so a reopen routes exactly as the writer did —
   the file wins over whatever [Options.shards]/[shard_boundaries] say,
   because data already placed under the old boundaries cannot move. *)

let layout_file dir = Filename.concat dir "SHARDING"
let layout_magic = "clsm-sharding/1"

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex h =
  if String.length h mod 2 <> 0 then
    failwith "Sharded_db: odd-length hex boundary in SHARDING";
  String.init
    (String.length h / 2)
    (fun i ->
      try Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))
      with _ -> failwith "Sharded_db: bad hex in SHARDING")

let persist_layout ~(env : Env.t) ~dir bounds =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s %d\n" layout_magic (Array.length bounds + 1));
  Array.iter (fun k -> Buffer.add_string b (to_hex k ^ "\n")) bounds;
  Env.publish env ~path:(layout_file dir) (Buffer.contents b)

let load_layout ~(env : Env.t) ~dir =
  let path = layout_file dir in
  if not (env.Env.file_exists path) then None
  else
    match String.split_on_char '\n' (String.trim (env.Env.read_file path)) with
    | header :: rest -> (
        match String.split_on_char ' ' header with
        | [ magic; n ] when magic = layout_magic ->
            let n =
              try int_of_string n
              with _ -> failwith "Sharded_db: bad shard count in SHARDING"
            in
            let bounds =
              rest |> List.filter (fun l -> l <> "") |> List.map of_hex
              |> Array.of_list
            in
            if Array.length bounds <> n - 1 then
              failwith "Sharded_db: SHARDING boundary count mismatch";
            Some bounds
        | _ -> failwith "Sharded_db: unrecognized SHARDING header")
    | [] -> failwith "Sharded_db: empty SHARDING file"

let validate_bounds ~shards bounds =
  if Array.length bounds <> shards - 1 then
    invalid_arg "Sharded_db: shard_boundaries must have length shards - 1";
  Array.iteri
    (fun i b ->
      if b = "" then invalid_arg "Sharded_db: empty shard boundary";
      if i > 0 && String.compare bounds.(i - 1) b >= 0 then
        invalid_arg "Sharded_db: shard boundaries must be strictly ascending")
    bounds

(* Byte-uniform default split: boundary j starts shard j at the single
   byte floor(j*256/n) — even coverage of the full byte keyspace, which
   real key distributions rarely are; pass explicit boundaries when the
   hot range is known. *)
let default_bounds n =
  if n > 256 then
    invalid_arg "Sharded_db: > 256 shards need explicit shard_boundaries";
  Array.init (n - 1) (fun j -> String.make 1 (Char.chr ((j + 1) * 256 / n)))

(* The shared pool's claim: a round-robin pass over the shards' claim
   queues from a rotating start, so no shard starves the others. With
   nothing runnable, the earliest due time of any shard. *)
let next_job shards rr () : (int * Job.t) Scheduler.work =
  let n = Array.length shards in
  let start = Atomic.fetch_and_add rr 1 in
  let rec probe i found =
    if i >= n then found
    else
      let s = (start + i) mod n in
      match (Db.maintenance_next shards.(s), found) with
      | Scheduler.Run job, _ -> Run (s, job)
      | Due d, Scheduler.Due d' -> probe (i + 1) (Due (Float.min d d'))
      | Due d, _ -> probe (i + 1) (Due d)
      | Idle, _ -> probe (i + 1) found
  in
  probe 0 Idle

let pp_job ppf (shard, job) =
  Format.fprintf ppf "shard%d:%a" shard Job.pp job

module Core = struct
  type t = {
    opts : Options.t;
    clock : Clock.t;
    shards : Db.t array;
    bounds : string array; (* length = shards - 1, strictly ascending *)
    batch_lock : Shared_lock.t;
        (* batches shared / cross-shard getSnap exclusive, see above *)
    stats : Stats.t; (* router-level counters (snapshot fences, pool spawns) *)
    scheduler : (int * Job.t) Scheduler.t;
    state : Store_state.lifecycle Atomic.t;
  }

  (* Owning shard = number of boundaries <= key (binary search). *)
  let shard_index t key =
    let lo = ref 0 and hi = ref (Array.length t.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare t.bounds.(mid) key <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let shard_of t key = t.shards.(shard_index t key)

  (* ---------- open / close ---------- *)

  let shard_dir root i = Filename.concat root (Printf.sprintf "shard-%d" i)

  let open_store (opts : Options.t) =
    let env = opts.Options.env in
    if not (env.Env.file_exists opts.Options.dir) then
      env.Env.mkdir opts.Options.dir;
    let bounds =
      match load_layout ~env ~dir:opts.Options.dir with
      | Some persisted -> persisted (* the directory's layout wins *)
      | None ->
          let n = opts.Options.shards in
          if n < 1 then
            invalid_arg "Sharded_db.open_store: shards must be >= 1";
          let bounds =
            match opts.Options.shard_boundaries with
            | Some bs ->
                let a = Array.of_list bs in
                validate_bounds ~shards:n a;
                a
            | None -> default_bounds n
          in
          persist_layout ~env ~dir:opts.Options.dir bounds;
          bounds
    in
    let n = Array.length bounds + 1 in
    let clock = Clock.create () in
    let shard_opts i =
      {
        opts with
        Options.dir = shard_dir opts.Options.dir i;
        shards = 1;
        shard_boundaries = None;
      }
    in
    (* If a later shard fails to open (corruption, injected fault), the
       already-opened ones must not leak their WAL writers. *)
    let opened = ref [] in
    let shards =
      try
        Array.init n (fun i ->
            let s = Db.open_shard ~clock (shard_opts i) in
            opened := s :: !opened;
            s)
      with e ->
        List.iter (fun s -> try Db.close s with _ -> ()) !opened;
        raise e
    in
    let stats = Stats.create () in
    let scheduler =
      Scheduler.create ~num_workers:opts.Options.maintenance_workers
        ~spawn:(Maintenance_hooks.counted_spawn stats)
        ~pp:pp_job
        ~next:(next_job shards (Atomic.make 0))
        ~run:(fun (i, job) -> Db.maintenance_run shards.(i) job)
        ~spawn_failed:(fun e -> function
          | Some (i, job) -> Db.maintenance_abandon shards.(i) e (Some job)
          | None -> Array.iter (fun s -> Db.maintenance_abandon s e None) shards)
        ()
    in
    Array.iter
      (fun s -> Db.set_wake_hook s (fun () -> Scheduler.wake scheduler))
      shards;
    Scheduler.start scheduler;
    {
      opts;
      clock;
      shards;
      bounds;
      batch_lock = Shared_lock.create ();
      stats;
      scheduler;
      state = Atomic.make Store_state.Open;
    }

  let check_open t =
    if Atomic.get t.state != Store_state.Open then raise Store_sig.Closed

  (* The shutdown [close] and [simulate_crash] share; [finish] closes
     one shard. The first caller drains router batches; every caller
     then stops the pool (a second [Scheduler.stop] waits for the
     first) and finishes every shard (a shard's second close waits for
     its first), so a second caller returns once the first is done.
     Every shard is finished even when one fails; the first failure
     still reaches the caller. *)
  let shutdown t ~finish =
    if Atomic.compare_and_set t.state Store_state.Open Store_state.Closing
    then begin
      Shared_lock.lock_exclusive t.batch_lock;
      Shared_lock.unlock_exclusive t.batch_lock
    end;
    Fun.protect
      ~finally:(fun () -> Atomic.set t.state Store_state.Closed)
      (fun () ->
        Scheduler.stop t.scheduler;
        let first = ref None in
        Array.iter
          (fun s -> try finish s with e -> if !first = None then first := Some e)
          t.shards;
        Option.iter raise !first)

  let close t = shutdown t ~finish:Db.close
  let simulate_crash t = shutdown t ~finish:Db.simulate_crash

  (* ---------- point operations: route and delegate ---------- *)

  let put t ~key ~value = Db.put (shard_of t key) ~key ~value
  let delete t ~key = Db.delete (shard_of t key) ~key
  let get t key = Db.get (shard_of t key) key

  type rmw_decision = Db.rmw_decision = Set of string | Remove | Abort

  let rmw t ~key f = Db.rmw (shard_of t key) ~key f

  let put_if_absent t ~key ~value =
    Db.put_if_absent (shard_of t key) ~key ~value

  (* ---------- write batches ---------- *)

  type batch_op = Db.batch_op =
    | Batch_put of string * string
    | Batch_delete of string

  let write_batch t ops =
    Shared_lock.with_shared t.batch_lock (fun () ->
        check_open t;
        let per = Array.make (Array.length t.shards) [] in
        List.iter
          (fun op ->
            let key = match op with Batch_put (k, _) | Batch_delete k -> k in
            let i = shard_index t key in
            per.(i) <- op :: per.(i))
          ops;
        Array.iteri
          (fun i sub ->
            if sub <> [] then Db.write_batch t.shards.(i) (List.rev sub))
          per)

  (* ---------- snapshots ---------- *)

  type snapshot = Clock.snapshot

  (* ONE fence, ONE registry entry, valid across every shard (they share
     the clock). Exclusive mode excludes in-flight router batches so
     their bare batch timestamps stay unobservable — see the header. *)
  let get_snap ?ttl t =
    check_open t;
    Stats.incr t.stats Stats.snapshots_taken;
    Shared_lock.lock_exclusive t.batch_lock;
    let s =
      Clock.snapshot ?ttl t.clock ~mode:t.opts.Options.snapshots
        ~now:(Clsm_util.Time_ns.now_s ())
    in
    Shared_lock.unlock_exclusive t.batch_lock;
    s

  let snapshot_ts (s : snapshot) = s.snap_ts
  let release_snapshot t s = Clock.release_snapshot t.clock s

  let get_at t s key = Db.get_at (shard_of t key) s key

  (* ---------- cross-shard iterators / scans ---------- *)

  type iterator = {
    snap : snapshot;
    own_snapshot : bool;
    merged : Iter.t;
    subs : Db.iterator array;
    router : t;
    mutable it_closed : bool;
  }

  let iter_of_sub sit =
    {
      Iter.seek_to_first = (fun () -> Db.iter_seek_first sit);
      seek = (fun target -> Db.iter_seek sit target);
      valid = (fun () -> Db.iter_valid sit);
      key = (fun () -> Db.iter_key sit);
      value = (fun () -> Db.iter_value sit);
      entry = (fun () -> Entry.Value (Db.iter_value sit));
      next = (fun () -> Db.iter_next sit);
    }

  (* Each shard contributes its snapshot-filtered iterator (already
     collapsed to visible user keys); the per-shard views are clamped to
     the shard's [lo, hi) range — routing makes the clamp a no-op, but
     it turns any routing bug into missing keys instead of a
     mis-ordered merge — and merged on user-key order. Disjoint ranges
     make the merge degenerate to concatenation; the k-way machinery is
     shared with the LSM read path. *)
  let iterator ?snapshot t =
    check_open t;
    let snap, own_snapshot =
      match snapshot with Some s -> (s, false) | None -> (get_snap t, true)
    in
    let subs = Array.map (fun sh -> Db.iterator ~snapshot:snap sh) t.shards in
    let clamped =
      Array.to_list
        (Array.mapi
           (fun i sit ->
             let lo = if i = 0 then None else Some t.bounds.(i - 1) in
             let hi =
               if i = Array.length t.bounds then None else Some t.bounds.(i)
             in
             Iter.clamp ?lo ?hi ~cmp:String.compare (iter_of_sub sit))
           subs)
    in
    let merged = Merge_iter.merge ~cmp:String.compare clamped in
    { snap; own_snapshot; merged; subs; router = t; it_closed = false }

  let iter_seek_first it = it.merged.Iter.seek_to_first ()
  let iter_seek it target = it.merged.Iter.seek target
  let iter_valid it = it.merged.Iter.valid ()

  let iter_key it =
    if not (iter_valid it) then
      invalid_arg "Sharded_db.iter_key: invalid iterator"
    else it.merged.Iter.key ()

  let iter_value it =
    if not (iter_valid it) then
      invalid_arg "Sharded_db.iter_value: invalid iterator"
    else it.merged.Iter.value ()

  let iter_next it = it.merged.Iter.next ()

  let iter_close it =
    if not it.it_closed then begin
      it.it_closed <- true;
      Array.iter Db.iter_close it.subs;
      if it.own_snapshot then release_snapshot it.router it.snap
    end

  (* ---------- maintenance / introspection ---------- *)

  let compact_now t =
    check_open t;
    Array.iter Db.compact_now t.shards

  let flush_wal t =
    check_open t;
    Array.iter Db.flush_wal t.shards

  (* Scan/get/put counters live in the shards (a cross-shard scan opens
     one iterator per shard and counts as such); the router adds only
     what the shards cannot see — the cross-shard snapshot fences. *)
  let stats t =
    Stats.merge_all
      (Stats.read t.stats
      :: Array.to_list (Array.map (fun s -> Db.stats s) t.shards))

  let options t = t.opts

  (* Worst shard wins: one degraded shard makes the whole keyspace
     partially unwritable, one partial shard means some key range is on
     reduced redundancy. Faults stay isolated per shard — the reasons
     name the shards so an operator can see the blast radius. *)
  let health t =
    let degraded = ref [] and partial = ref [] in
    Array.iteri
      (fun i s ->
        match Db.health s with
        | `Ok -> ()
        | `Partial reason ->
            partial := Printf.sprintf "shard %d: %s" i reason :: !partial
        | `Degraded reason ->
            degraded := Printf.sprintf "shard %d: %s" i reason :: !degraded)
      t.shards;
    match (List.rev !degraded, List.rev !partial) with
    | _ when Atomic.get t.state != Store_state.Open -> `Degraded "store closed"
    | [], [] -> `Ok
    | [], partials -> `Partial (String.concat "; " partials)
    | reasons, _ -> `Degraded (String.concat "; " reasons)

  let scrub_now t =
    check_open t;
    Array.to_list t.shards
    |> List.mapi (fun i s ->
           List.map (Printf.sprintf "shard %d: %s" i) (Db.scrub_now s))
    |> List.concat

  let repair_now t =
    check_open t;
    Array.iter (fun s -> ignore (Db.repair_now s)) t.shards;
    health t

  let level_file_counts t =
    check_open t;
    Array.fold_left
      (fun acc s ->
        let counts = Array.of_list (Db.level_file_counts s) in
        Array.init
          (max (Array.length acc) (Array.length counts))
          (fun i ->
            let at (a : int array) = if i < Array.length a then a.(i) else 0 in
            at acc + at counts))
      [||] t.shards
    |> Array.to_list

  let memtable_bytes t =
    check_open t;
    Array.fold_left (fun acc s -> acc + Db.memtable_bytes s) 0 t.shards

  let cache_stats t =
    check_open t;
    Array.fold_left
      (fun (acc : Clsm_sstable.Cache.stats) s ->
        let c = Db.cache_stats s in
        Clsm_sstable.Cache.
          {
            hits = acc.hits + c.hits;
            misses = acc.misses + c.misses;
            evictions = acc.evictions + c.evictions;
            weight = acc.weight + c.weight;
            pins = acc.pins + c.pins;
            singleflight_waits = acc.singleflight_waits + c.singleflight_waits;
            readaheads = acc.readaheads + c.readaheads;
            readahead_blocks = acc.readahead_blocks + c.readahead_blocks;
          })
      Clsm_sstable.Cache.
        {
          hits = 0;
          misses = 0;
          evictions = 0;
          weight = 0;
          pins = 0;
          singleflight_waits = 0;
          readaheads = 0;
          readahead_blocks = 0;
        }
      t.shards

  let verify_integrity t =
    check_open t;
    Array.to_list t.shards
    |> List.mapi (fun i s ->
           List.map (Printf.sprintf "shard %d: %s" i) (Db.verify_integrity s))
    |> List.concat

  (* Repair each shard directory independently; a directory that never
     was sharded (no SHARDING file, no shard-* subdirs) is repaired as a
     single store. *)
  let repair ?(env = Env.unix) ~dir () =
    let entries = try env.Env.list_dir dir with Env.Error _ -> [] in
    let shard_dirs =
      entries
      |> List.filter (fun name ->
             String.length name > 6 && String.sub name 0 6 = "shard-")
      |> List.sort compare
    in
    if shard_dirs = [] then Db.repair ~env ~dir ()
    else
      List.iter
        (fun name -> Db.repair ~env ~dir:(Filename.concat dir name) ())
        shard_dirs

  (* ---------- router-specific introspection ---------- *)

  let shard_count t = Array.length t.shards
  let shard_boundaries t = Array.to_list t.bounds
  let shard_stats t = Array.map (fun s -> Db.stats s) t.shards
  let shard_healths t = Array.map (fun s -> Db.health s) t.shards
end

(* The router: the primitives above plus the bulk reads
   {!Store_sig.Scans} derives from them. *)
include Core
include Store_sig.Scans (Core)
