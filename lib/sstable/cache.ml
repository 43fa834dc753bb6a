(* Sharded CLOCK cache with a lock-free hit path.

   Each shard publishes its key -> entry map as an immutable snapshot in
   an [Atomic.t]; readers only do [Atomic.get] + [Map.find_opt] + a
   reference-bit check. All structural mutation (insert, evict, remove,
   reservations) happens under the shard mutex and republishes the
   snapshot.

   Eviction order is CLOCK (second chance): resident entries sit in a
   compact array swept by a hand; a set reference bit buys one more lap.
   An entry holds its value directly: a reader racing an eviction keeps
   the value it already loaded, and the GC frees it once no reader holds
   it, so nothing is counted per hit. *)

module IMap = Map.Make (Int)

type 'a entry = {
  ekey : int;
  value : 'a;
  w : int; (* [weight_of value] *)
  refbit : bool Atomic.t;
  mutable slot : int; (* index in the CLOCK ring *)
}

(* A load in progress; [outcome] is set, under the shard mutex, when
   the winner finishes. *)
type 'a flight = { mutable outcome : ('a, exn) result option }

type 'a shard = {
  mutex : Mutex.t;
  cond : Condition.t;
  map : 'a entry IMap.t Atomic.t;
  mutable ring : 'a entry option array;
  mutable count : int; (* live prefix of [ring] *)
  mutable hand : int;
  mutable used : int;
  capacity : int;
  reservations : (int, int) Hashtbl.t;
  inflight : (int, 'a flight) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  sf_waits : int Atomic.t;
}

type 'a t = {
  shards : 'a shard array;
  weight_of : 'a -> int;
  ra_blocks : int;
  readaheads : int Atomic.t;
  readahead_blocks_total : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  weight : int;
  pins : int;
  singleflight_waits : int;
  readaheads : int;
  readahead_blocks : int;
}

let create ?(shards = 16) ?(readahead = 0) ~capacity ~weight () =
  if shards < 1 || capacity < 0 || readahead < 0 then
    invalid_arg "Cache.create";
  let per_shard = max 1 (capacity / shards) in
  let make_shard _ =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      map = Atomic.make IMap.empty;
      ring = Array.make 16 None;
      count = 0;
      hand = 0;
      used = 0;
      capacity = per_shard;
      reservations = Hashtbl.create 8;
      inflight = Hashtbl.create 8;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      sf_waits = Atomic.make 0;
    }
  in
  {
    shards = Array.init shards make_shard;
    weight_of = weight;
    ra_blocks = readahead;
    readaheads = Atomic.make 0;
    readahead_blocks_total = Atomic.make 0;
  }

let shard_of t key =
  t.shards.(Clsm_util.Hashing.mix64 key mod Array.length t.shards)

let with_locked sh f = Mutex.protect sh.mutex f

(* --- ring management (under the shard mutex) --- *)

let ring_entry sh i =
  match sh.ring.(i) with Some e -> e | None -> assert false
[@@requires_lock cache_shard]

let ring_add sh e =
  if sh.count = Array.length sh.ring then begin
    let bigger = Array.make (2 * sh.count) None in
    Array.blit sh.ring 0 bigger 0 sh.count;
    sh.ring <- bigger
  end;
  sh.ring.(sh.count) <- Some e;
  e.slot <- sh.count;
  sh.count <- sh.count + 1
[@@requires_lock cache_shard]

(* Swap-remove keeps the ring compact; CLOCK order is approximate anyway
   and the reference bits carry the recency information. The entry moved
   is the ring's last, usually the block inserted last: when it lands
   under the hand (an eviction always removes the entry there), the
   hand steps past it, or the newest block would be the next victim. *)
let ring_remove sh e =
  let i = e.slot in
  assert (i >= 0 && i < sh.count);
  let last = sh.count - 1 in
  if i <> last then begin
    let moved = ring_entry sh last in
    sh.ring.(i) <- Some moved;
    moved.slot <- i
  end;
  sh.ring.(last) <- None;
  sh.count <- last;
  if i = sh.hand && i <> last then sh.hand <- (i + 1) mod last
  else if sh.hand >= sh.count then sh.hand <- 0
[@@requires_lock cache_shard]

let drop_entry sh e =
  Atomic.set sh.map (IMap.remove e.ekey (Atomic.get sh.map));
  ring_remove sh e;
  sh.used <- sh.used - e.w
[@@requires_lock cache_shard]

let evict_until_fits sh =
  let budget = ref (2 * sh.count + 1) in
  while sh.used > sh.capacity && sh.count > 0 && !budget > 0 do
    decr budget;
    let e = ring_entry sh sh.hand in
    if Atomic.get e.refbit then begin
      Atomic.set e.refbit false;
      sh.hand <- (sh.hand + 1) mod sh.count
    end
    else begin
      drop_entry sh e;
      Atomic.incr sh.evictions
    end
  done
[@@requires_lock cache_shard]

(* --- lock-free hit path --- *)

(* A hit sets the CLOCK reference bit only when it is clear, so hot
   entries are read-shared between domains, not written by every hit. *)
let touch e = if not (Atomic.get e.refbit) then Atomic.set e.refbit true

let find t key =
  let sh = shard_of t key in
  match IMap.find_opt key (Atomic.get sh.map) with
  | None ->
      Atomic.incr sh.misses;
      None
  | Some e ->
      touch e;
      Atomic.incr sh.hits;
      Some e.value

let mem t key =
  let sh = shard_of t key in
  IMap.mem key (Atomic.get sh.map)

(* --- writes (shard mutex) --- *)

let install_locked t sh key v =
  (match IMap.find_opt key (Atomic.get sh.map) with
  | Some old -> drop_entry sh old
  | None -> ());
  let w = t.weight_of v in
  (* Entries heavier than the whole shard are never resident. *)
  if w <= sh.capacity then begin
    let e = { ekey = key; value = v; w; refbit = Atomic.make false; slot = -1 } in
    Atomic.set sh.map (IMap.add key e (Atomic.get sh.map));
    ring_add sh e;
    sh.used <- sh.used + w;
    evict_until_fits sh
  end
[@@requires_lock cache_shard]

let insert t key v =
  let sh = shard_of t key in
  with_locked sh (fun () -> install_locked t sh key v)

let remove t key =
  let sh = shard_of t key in
  with_locked sh (fun () ->
      match IMap.find_opt key (Atomic.get sh.map) with
      | Some e -> drop_entry sh e
      | None -> ())

(* Eager invalidation for a retiring key range (a closing table's
   blocks). Without it, dead blocks linger with their reference bits set
   and CLOCK's second chance makes them evict live data first — unlike
   strict LRU, the hand can't tell "recently used, then orphaned" from
   "hot". Each shard walks only the keys in the range. *)
let remove_range t ~lo ~hi =
  Array.iter
    (fun sh ->
      with_locked sh (fun () ->
          Seq.iter
            (fun (_, e) -> drop_entry sh e)
            (Seq.take_while
               (fun (k, _) -> k < hi)
               (IMap.to_seq_from lo (Atomic.get sh.map)))))
    t.shards

(* --- singleflight miss path --- *)

type 'a claim = Ready of ('a, exn) result | Load of 'a flight

let find_or_add t key f =
  match find t key with
  | Some v -> v
  | None -> (
      let sh = shard_of t key in
      (* Under the mutex, after the lock-free probe missed: the value if
         someone installed it since, else the outcome of the load already
         in flight (waiting for it), else a fresh flight to load. *)
      let claim =
        with_locked sh (fun () ->
            match IMap.find_opt key (Atomic.get sh.map) with
            | Some e ->
                touch e;
                Ready (Ok e.value)
            | None -> (
                match Hashtbl.find_opt sh.inflight key with
                | Some fl ->
                    Atomic.incr sh.sf_waits;
                    while Option.is_none fl.outcome do
                      Condition.wait sh.cond sh.mutex
                    done;
                    Ready (Option.get fl.outcome)
                | None ->
                    let fl = { outcome = None } in
                    Hashtbl.add sh.inflight key fl;
                    Load fl))
      in
      let outcome =
        match claim with
        | Ready r -> r
        | Load fl ->
            let loaded = match f () with v -> Ok v | exception e -> Error e in
            with_locked sh (fun () ->
                (* The weight callback may raise too; the flight completes
                   either way, or its waiters would park forever. *)
                let r =
                  match loaded with
                  | Ok v -> (
                      match install_locked t sh key v with
                      | () -> loaded
                      | exception e -> Error e)
                  | Error _ -> loaded
                in
                fl.outcome <- Some r;
                Hashtbl.remove sh.inflight key;
                Condition.broadcast sh.cond;
                r)
      in
      match outcome with Ok v -> v | Error e -> raise e)

(* --- reservations --- *)

let reserve t key w =
  if w < 0 then invalid_arg "Cache.reserve";
  let sh = shard_of t key in
  with_locked sh (fun () ->
      (match Hashtbl.find_opt sh.reservations key with
      | Some old -> sh.used <- sh.used - old
      | None -> ());
      Hashtbl.replace sh.reservations key w;
      sh.used <- sh.used + w;
      evict_until_fits sh)

let unreserve t key =
  let sh = shard_of t key in
  with_locked sh (fun () ->
      match Hashtbl.find_opt sh.reservations key with
      | Some old ->
          Hashtbl.remove sh.reservations key;
          sh.used <- sh.used - old
      | None -> ())

(* --- readahead policy and counters --- *)

let readahead_blocks (t : _ t) = t.ra_blocks

let note_readahead (t : _ t) ~blocks =
  Atomic.incr t.readaheads;
  ignore (Atomic.fetch_and_add t.readahead_blocks_total blocks)

(* --- observability --- *)

(* [weight] and [pins] read mutex-guarded fields without the mutex: a
   racing writer makes them momentarily stale, never torn. *)
let stats (t : _ t) =
  Array.fold_left
    (fun acc (sh : _ shard) ->
      {
        acc with
        hits = acc.hits + Atomic.get sh.hits;
        misses = acc.misses + Atomic.get sh.misses;
        evictions = acc.evictions + Atomic.get sh.evictions;
        weight = acc.weight + sh.used;
        pins = acc.pins + Hashtbl.length sh.reservations;
        singleflight_waits = acc.singleflight_waits + Atomic.get sh.sf_waits;
      })
    {
      hits = 0;
      misses = 0;
      evictions = 0;
      weight = 0;
      pins = 0;
      singleflight_waits = 0;
      readaheads = Atomic.get t.readaheads;
      readahead_blocks = Atomic.get t.readahead_blocks_total;
    }
    t.shards

let cardinal t =
  Array.fold_left
    (fun acc sh -> acc + IMap.cardinal (Atomic.get sh.map))
    0 t.shards

let with_shard_locked t key f =
  let sh = shard_of t key in
  with_locked sh f
