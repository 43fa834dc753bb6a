(* Sharded CLOCK cache with a lock-free hit path.

   Each shard publishes its key -> entry map as an immutable snapshot in
   an [Atomic.t]; readers only do [Atomic.get] + [Map.find_opt] + a
   reference-bit check, and [Refcounted.try_incr] when they take a
   handle. All structural mutation (insert, evict, pin, clear) happens
   under the shard mutex and republishes the snapshot.

   Eviction order is CLOCK (second chance): resident unpinned entries sit
   in a compact array swept by a hand; a set reference bit buys one more
   lap. Eviction drops only the cache's owner reference — outstanding
   handles keep the payload alive, so a reader racing an eviction never
   observes a freed block.

   The retry in [acquire] terminates: [try_incr] can only fail
   after an evictor's final [decr], which (program order on the evicting
   domain, seq-cst atomics) happens after the entry was removed from the
   published snapshot — so the re-read snapshot no longer contains that
   entry. *)

module IMap = Map.Make (Int)
module Refcounted = Clsm_primitives.Refcounted

type 'a entry = {
  ekey : int;
  cell : 'a Refcounted.t;
  w : int;
  refbit : bool Atomic.t;
  pinned : bool;
  mutable slot : int; (* index in the CLOCK ring; -1 = not resident *)
}

type 'a handle = { h_entry : 'a entry; mutable h_alive : bool }

type 'a flight = {
  mutable done_ : bool;
  mutable failed : exn option; (* meaningful once [done_] *)
}

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
  pin_count : int Atomic.t;
  sf_waits : int Atomic.t;
}

type 'a t = {
  shards : 'a shard array;
  weight_of : 'a -> int;
  release : 'a -> unit;
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

let create ?(shards = 16) ?(release = fun _ -> ()) ?(readahead = 0)
    ~capacity ~weight () =
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
      pin_count = Atomic.make 0;
      sf_waits = Atomic.make 0;
    }
  in
  {
    shards = Array.init shards make_shard;
    weight_of = weight;
    release;
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
   and the reference bits carry the recency information. *)
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
  e.slot <- -1;
  if sh.hand >= sh.count then sh.hand <- 0
[@@requires_lock cache_shard]

(* Remove [e] from the published snapshot, then drop the cache's owner
   reference. Publication must precede the [decr]: readers whose
   [try_incr] loses to the final decrement re-read the snapshot and must
   no longer find [e] (see the retry-termination note above). *)
let drop_entry sh e =
  Atomic.set sh.map (IMap.remove e.ekey (Atomic.get sh.map));
  if e.slot >= 0 then ring_remove sh e;
  sh.used <- sh.used - e.w;
  Refcounted.decr e.cell
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

let rec acquire t key =
  let sh = shard_of t key in
  match IMap.find_opt key (Atomic.get sh.map) with
  | None ->
      Atomic.incr sh.misses;
      None
  | Some e ->
      if Refcounted.try_incr e.cell then begin
        touch e;
        Atomic.incr sh.hits;
        Some { h_entry = e; h_alive = true }
      end
      else acquire t key

(* The value of a resident [key], with no handle: the reference a handle
   would take is dropped before the caller reads the value anyway, so a
   hit reads the payload straight from the published entry. *)
let find_resident t key =
  let sh = shard_of t key in
  match IMap.find_opt key (Atomic.get sh.map) with
  | None -> None
  | Some e ->
      touch e;
      Atomic.incr sh.hits;
      Some (Refcounted.value e.cell)

let handle_value h = Refcounted.value h.h_entry.cell

let release h =
  if h.h_alive then begin
    h.h_alive <- false;
    Refcounted.decr h.h_entry.cell
  end

let find t key =
  match find_resident t key with
  | Some _ as hit -> hit
  | None ->
      Atomic.incr (shard_of t key).misses;
      None

let mem t key =
  let sh = shard_of t key in
  IMap.mem key (Atomic.get sh.map)

(* --- writes (shard mutex) --- *)

(* Install a fresh entry. [extra_ref] takes the caller's handle
   reference *before* eviction runs, so the brand-new entry surviving or
   not, the caller's payload stays valid. *)
let install_locked t sh key v ~extra_ref =
  (match IMap.find_opt key (Atomic.get sh.map) with
  | Some old when not old.pinned -> drop_entry sh old
  | _ -> ());
  match IMap.find_opt key (Atomic.get sh.map) with
  | Some pinned_entry ->
      (* A pin owns this key; hand out a reference to it instead. *)
      if extra_ref then begin
        let ok = Refcounted.try_incr pinned_entry.cell in
        assert ok;
        Some { h_entry = pinned_entry; h_alive = true }
      end
      else None
  | None ->
      let w = t.weight_of v in
      let cell = Refcounted.create ~release:t.release v in
      let e =
        { ekey = key; cell; w; refbit = Atomic.make false; pinned = false;
          slot = -1 }
      in
      let h =
        if extra_ref then begin
          let ok = Refcounted.try_incr cell in
          assert ok;
          Some { h_entry = e; h_alive = true }
        end
        else None
      in
      if w <= sh.capacity then begin
        Atomic.set sh.map (IMap.add key e (Atomic.get sh.map));
        ring_add sh e;
        sh.used <- sh.used + w;
        evict_until_fits sh
      end
      else
        (* Oversized entries are never resident: drop the owner ref, so
           the payload's lifetime is the caller's handle (if any). *)
        Refcounted.decr cell;
      h
[@@requires_lock cache_shard]

let insert t key v =
  let sh = shard_of t key in
  with_locked sh (fun () -> ignore (install_locked t sh key v ~extra_ref:false))

let remove t key =
  let sh = shard_of t key in
  with_locked sh (fun () ->
      match IMap.find_opt key (Atomic.get sh.map) with
      | Some e when not e.pinned -> drop_entry sh e
      | _ -> ())

let clear t =
  Array.iter
    (fun sh ->
      with_locked sh (fun () ->
          IMap.iter
            (fun _ e -> if not e.pinned then drop_entry sh e)
            (Atomic.get sh.map)))
    t.shards

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
            (fun (_, e) -> if not e.pinned then drop_entry sh e)
            (Seq.take_while
               (fun (k, _) -> k < hi)
               (IMap.to_seq_from lo (Atomic.get sh.map)))))
    t.shards

(* --- singleflight miss path --- *)

let rec acquire_or_add t key f =
  match acquire t key with
  | Some h -> h
  | None -> (
      let sh = shard_of t key in
      Mutex.lock sh.mutex;
      (* Re-check under the lock: someone may have installed while we
         were acquiring the mutex. *)
      let resident =
        match IMap.find_opt key (Atomic.get sh.map) with
        | Some e when Refcounted.try_incr e.cell ->
            touch e;
            Some { h_entry = e; h_alive = true }
        | _ -> None
      in
      match resident with
      | Some h ->
          Mutex.unlock sh.mutex;
          h
      | None -> (
          match Hashtbl.find_opt sh.inflight key with
          | Some fl ->
              (* Loser: wait for the winner, then share its entry. *)
              Atomic.incr sh.sf_waits;
              while not fl.done_ do
                Condition.wait sh.cond sh.mutex
              done;
              Mutex.unlock sh.mutex;
              (match fl.failed with
              | Some e -> raise e
              | None ->
                  (* The winner installed (or its entry was already
                     evicted); retry from the top — never install our
                     own copy over the winner's. *)
                  acquire_or_add t key f)
          | None ->
              let fl = { done_ = false; failed = None } in
              Hashtbl.add sh.inflight key fl;
              Mutex.unlock sh.mutex;
              (* Whatever happens inside — including [install_locked]
                 raising out of the user's weight callback — the flight
                 must be marked done and waiters woken, or losers park on
                 [cond] forever. *)
              let finish outcome =
                Mutex.protect sh.mutex (fun () ->
                    Fun.protect
                      ~finally:(fun () ->
                        fl.done_ <- true;
                        Hashtbl.remove sh.inflight key;
                        Condition.broadcast sh.cond)
                      (fun () ->
                        match outcome with
                        | Ok v -> (
                            match install_locked t sh key v ~extra_ref:true with
                            | r -> r
                            | exception e ->
                                fl.failed <- Some e;
                                raise e)
                        | Error e ->
                            fl.failed <- Some e;
                            None))
              in
              (match f () with
              | v -> (
                  match finish (Ok v) with
                  | Some h -> h
                  | None -> assert false)
              | exception e ->
                  ignore (finish (Error e));
                  raise e)))

let find_or_add t key f =
  match find_resident t key with
  | Some v -> v
  | None ->
      let h = acquire_or_add t key f in
      let v = handle_value h in
      release h;
      v

(* --- pinning and reservations --- *)

let pin t key v =
  let sh = shard_of t key in
  with_locked sh (fun () ->
      (match IMap.find_opt key (Atomic.get sh.map) with
      | Some old when not old.pinned -> drop_entry sh old
      | Some _ -> invalid_arg "Cache.pin: key already pinned"
      | None -> ());
      let w = t.weight_of v in
      let cell = Refcounted.create ~release:t.release v in
      let e =
        { ekey = key; cell; w; refbit = Atomic.make true; pinned = true;
          slot = -1 }
      in
      let ok = Refcounted.try_incr cell in
      assert ok;
      Atomic.set sh.map (IMap.add key e (Atomic.get sh.map));
      sh.used <- sh.used + w;
      Atomic.incr sh.pin_count;
      evict_until_fits sh;
      { h_entry = e; h_alive = true })

let unpin t h =
  let e = h.h_entry in
  if e.pinned then begin
    let sh = shard_of t e.ekey in
    with_locked sh (fun () ->
        match IMap.find_opt e.ekey (Atomic.get sh.map) with
        | Some resident when resident == e ->
            Atomic.set sh.map (IMap.remove e.ekey (Atomic.get sh.map));
            sh.used <- sh.used - e.w;
            Atomic.decr sh.pin_count;
            Refcounted.decr e.cell
        | _ -> ())
  end;
  release h

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

let stats (t : _ t) =
  Array.fold_left
    (fun acc (sh : _ shard) ->
      {
        acc with
        hits = acc.hits + Atomic.get sh.hits;
        misses = acc.misses + Atomic.get sh.misses;
        evictions = acc.evictions + Atomic.get sh.evictions;
        weight = acc.weight + sh.used;
        pins = acc.pins + Atomic.get sh.pin_count;
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
