module Time_ns = Clsm_util.Time_ns
module Env = Clsm_env.Env

type group_config = { max_batch : int; max_delay_us : int }
type mode = Async | Group of group_config

type observer = {
  on_group_commit : records:int -> unit;
  on_commit_wait : ns:int -> unit;
  on_window : boarded:bool -> unit;
}

type t = {
  mode : mode;
  file_path : string;
  writer : Env.writer;
      (* touched only by the round's leader, and by [close]/[abandon] once
         no leader is left (see [shut]) *)
  observer : observer option;
  mutable closed : bool;
  mutable written : int;
      (* bytes fully handed to the env writer, advanced by the leader
         only AFTER a physical append returns: the file prefix
         [0, written) contains whole records and no in-flight bytes, so
         a concurrent reader (scrub's WAL-tail check) that stops there
         can never misread a half-written record as corruption *)
  (* Everything below is under [gm], the writer's only mutex. It is
     never held across IO: the leader drops it around the window and
     the write+fsync and re-takes it to publish. [gm] is an order leaf
     and a no-block lock in tools/lockcheck/lockspec.sexp; `dune build
     @lint` enforces this. *)
  gm : Mutex.t;
  gcond : Condition.t;
  mutable poisoned : exn option; (* first IO failure, monotonic None->Some *)
  pending : string Queue.t;
      (* records from every append and enqueue, FIFO by ticket: tickets
         are consecutive, so the head's is [next - Queue.length pending] *)
  mutable next : int; (* next ticket to hand out *)
  mutable handed : int; (* highest ticket handed to the env writer *)
  mutable durable : int; (* highest ticket fsynced *)
  mutable leading : bool; (* a leader is in its round *)
  mutable gtarget : int;
      (* committers the next round expects to board: the previous round's
         batch (closed-loop writers come back) plus its leftovers (already
         pending). A leader opens the accumulation window only while fewer
         than this are pending; see [lead_round_locked]. *)
  mutable gwindow : int;
      (* while a leader is parked in the window: the pending count that
         closes it early; 0 otherwise *)
  mutable gwake : (Unix.file_descr * Unix.file_descr) option;
      (* self-pipe the rider completing [gwindow] writes one byte to,
         waking the leader out of its [Unix.select]. Only in [Group] mode
         when a window can open ([max_batch > 1], [max_delay_us > 0]);
         [None] once [close]/[abandon] began, after which no window opens
         (see [shut]). *)
}

let create ?(mode = Async) ?(env = Env.unix) ?observer file_path =
  let writer = env.Env.create_writer file_path in
  let gwake =
    match mode with
    | Group { max_batch; max_delay_us } when max_batch > 1 && max_delay_us > 0 ->
        let r, w =
          try Unix.pipe ~cloexec:true ()
          with e ->
            (try writer.Env.w_close () with _ -> ());
            raise e
        in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        Some (r, w)
    | Group _ | Async -> None
  in
  {
    mode;
    file_path;
    writer;
    observer;
    closed = false;
    written = 0;
    gm = Mutex.create ();
    gcond = Condition.create ();
    poisoned = None;
    pending = Queue.create ();
    next = 0;
    handed = -1;
    durable = -1;
    leading = false;
    gtarget = 1;
    gwindow = 0;
    gwake;
  }

(* Fsync-gate semantics: after any append or fsync failure the durability
   of previously acknowledged bytes is unknown, so the writer is
   permanently poisoned — every later operation re-raises the original
   failure instead of silently retrying over a gap. *)
let check_poisoned t = match t.poisoned with Some e -> raise e | None -> ()

let poison_locked t e = if t.poisoned = None then t.poisoned <- Some e
[@@requires_lock gm]

(* The rider whose record completes the window's target wakes the parked
   leader. Called under [gm], so it cannot race the leader's decision to
   park (made under [gm]) or [shut] closing the pipe; the write end
   is non-blocking, and a full pipe already wakes the leader. *)
let kick_locked t =
  match t.gwake with
  | Some (_, w) -> (
      try ignore (Unix.single_write_substring w "!" 0 1)
      with Unix.Unix_error _ -> ())
  | None -> ()
[@@requires_lock gm]

let push_locked t payload =
  let ticket = t.next in
  t.next <- ticket + 1;
  Queue.push payload t.pending;
  if Queue.length t.pending = t.gwindow then kick_locked t;
  ticket
[@@requires_lock gm]

(* Park on the pipe for at most [ns], without [gm]. A byte written before
   the [select] still wakes it, so no kick is lost between dropping [gm]
   and parking. [false] when the pipe cannot be waited on at all (e.g. a
   descriptor past [select]'s limit): the caller then closes the window
   instead of retrying it in a spin. Never raises: [gm] is not held. *)
let park rfd ~ns =
  match Unix.select [ rfd ] [] [] (float_of_int ns *. 1e-9) with
  | [], _, _ -> true
  | _ -> (
      try
        ignore (Unix.read rfd (Bytes.create 1) 0 1);
        true
      with
      | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
      | Unix.Unix_error _ -> false)
  | exception Unix.Unix_error (EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* The one commit round, led by the caller: an optional accumulation
   window ([accumulate], [Group] appends only), then the pending records
   — at most [limit], all of them when [None] — in one write, then one
   fsync when [sync]. A [sync] round with nothing pending but unsynced
   bytes does the fsync alone. Only a bounded round, a [Group] append's,
   updates the next window's prediction. Called and returns with [gm] held; [gm] is dropped around the window
   and the IO so appenders keep queueing. Only the leader touches the
   env writer, so the IO needs no lock of its own. On IO failure the
   writer is poisoned and every waiter is woken to re-raise it; the
   round itself never raises (the callers' loops surface the poison). *)
let lead_round_locked t ~limit ~accumulate ~sync =
  t.leading <- true;
  let room = Option.value limit ~default:max_int in
  let target = min room t.gtarget in
  (match t.gwake, t.mode with
  | Some (rfd, _), Group cfg when accumulate && Queue.length t.pending < target
    ->
      (* Accumulation window: wait until the [target] committers the last
         round predicts have boarded, or [max_delay_us] has passed. An
         uncontended writer has a target of 1 and never opens it; two
         closed-loop writers close it as soon as the second re-enqueues.
         After a writer departs, one window expires and the smaller
         batch lowers the target. The leader blocks in [select] on the
         self-pipe (OCaml's [Condition] has no timed wait), so it yields
         the CPU to the riders it waits for. *)
      t.gwindow <- target;
      let deadline = Time_ns.now_ns () + (cfg.max_delay_us * 1000) in
      let rec board () =
        if Queue.length t.pending >= target then true
        else
          let left = deadline - Time_ns.now_ns () in
          if left <= 0 || t.gwake = None then false
          else begin
            Mutex.unlock t.gm;
            let parked = park rfd ~ns:left in
            Mutex.lock t.gm;
            if parked then board () else Queue.length t.pending >= target
          end
      in
      let boarded = board () in
      t.gwindow <- 0;
      Option.iter (fun o -> o.on_window ~boarded) t.observer
  | _ -> ());
  let first = t.next - Queue.length t.pending in
  let batch = ref [] and n = ref 0 and bytes = ref 0 in
  while !n < room && not (Queue.is_empty t.pending) do
    let payload = Queue.pop t.pending in
    batch := payload :: !batch;
    incr n;
    bytes := !bytes + Wal_record.header_length + String.length payload
  done;
  let payloads = List.rev !batch and n = !n in
  let sync = sync && (n > 0 || t.handed > t.durable) in
  (* Poisoned (a failure, or [abandon]): the popped records are dropped
     unwritten, as they were never acknowledged. *)
  let io = t.poisoned = None in
  Mutex.unlock t.gm;
  let failure =
    if not io then None
    else
      try
        if n > 0 then begin
          (* sized to the batch: a fixed 4 KB start would be a major-heap
             allocation every round *)
          let buf = Buffer.create !bytes in
          List.iter (Wal_record.encode buf) payloads;
          t.writer.Env.w_append (Buffer.contents buf);
          t.written <- t.written + Buffer.length buf
        end;
        if sync then t.writer.Env.w_fsync ();
        None
      with e -> Some e
  in
  Mutex.lock t.gm;
  t.leading <- false;
  (* The next round expects this batch back plus whoever queued behind
     it; a round that found nothing to do predicts a lone writer. *)
  if limit <> None then t.gtarget <- max 1 (n + Queue.length t.pending);
  (match failure with
  | Some e -> poison_locked t e
  | None when io ->
      t.handed <- first + n - 1;
      if sync then begin
        t.durable <- t.handed;
        match t.mode, t.observer with
        | Group _, Some o when n > 0 -> o.on_group_commit ~records:n
        | _ -> ()
      end
  | None -> ());
  (* Wake everyone: riders whose ticket is now durable return, the rest
     either elect the next leader or observe the poison and raise. *)
  Condition.broadcast t.gcond
[@@requires_lock gm] [@@drops_lock gm]

(* Lead or wait out rounds, under [gm], until [ticket] is durable or the
   writer is poisoned. *)
let rec settle_locked t ~ticket ~limit ~accumulate =
  if t.durable < ticket then begin
    check_poisoned t;
    if t.leading then Condition.wait t.gcond t.gm
    else lead_round_locked t ~limit ~accumulate ~sync:true;
    settle_locked t ~ticket ~limit ~accumulate
  end
[@@requires_lock gm] [@@drops_lock gm]

let append_group t cfg ~alone payload =
  let t0 = Time_ns.now_ns () in
  Mutex.protect t.gm (fun () ->
      check_poisoned t;
      let ticket = push_locked t payload in
      settle_locked t ~ticket ~limit:(Some cfg.max_batch)
        ~accumulate:(not alone));
  match t.observer with
  | Some o -> o.on_commit_wait ~ns:(max 0 (Time_ns.now_ns () - t0))
  | None -> ()

(* Wake everything parked on the writer, and wait out a leader still in
   its round, so the caller may release the descriptors. Clearing
   [gwake] stops any later leader from opening a window; a parked leader
   is kicked out of its [select] and sees it cleared; the pipe is closed
   only once no leader is left, so none ever selects on a descriptor
   number the process may since have reused. [crash] first poisons the
   writer, so the woken skip their IO and raise. *)
let shut t ~crash =
  Mutex.protect t.gm (fun () ->
      if crash then poison_locked t Env.Crashed;
      let pipe = t.gwake in
      kick_locked t;
      t.gwake <- None;
      Condition.broadcast t.gcond;
      while t.leading do
        Condition.wait t.gcond t.gm
      done;
      Option.iter
        (fun (r, w) ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ r; w ])
        pipe)

(* ---------- public operations ---------- *)

let append ?(alone = false) t payload =
  if t.closed then invalid_arg "Wal_writer.append: closed";
  match t.mode with
  | Group cfg -> append_group t cfg ~alone payload
  | Async ->
      (* Queue the record, and write out everything pending unless a
         leader is already at it: an async append never waits on anyone
         else's IO. A failure poisons the writer; it surfaces on the next
         [append] or [flush] (an async append acknowledges nothing). *)
      Mutex.protect t.gm (fun () ->
          check_poisoned t;
          ignore (push_locked t payload);
          if not t.leading then
            lead_round_locked t ~limit:None ~accumulate:false ~sync:false)

let enqueue t payload =
  if t.closed then invalid_arg "Wal_writer.enqueue: closed";
  (* Queue without any durability work or acknowledgement, regardless of
     mode. Recovery uses this to re-log an entire replayed memtable as
     one batch: a blocking [append] per record would pay one fsync (and,
     in [Group] mode, one accumulation window) per already-recovered
     record. A single [flush] afterwards makes the batch durable. *)
  Mutex.protect t.gm (fun () ->
      check_poisoned t;
      ignore (push_locked t payload))

(* Every ticket issued before the call becomes durable, in rounds with no
   window and no batch bound. Once poisoned, re-raises the original
   failure without touching the queue or the file. *)
let flush t =
  Mutex.protect t.gm (fun () ->
      check_poisoned t;
      settle_locked t ~ticket:(t.next - 1) ~limit:None ~accumulate:false)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* The descriptor is released even when the final flush fails; the
       failure still propagates (a swallowed fsync error here would
       silently drop acknowledged-durable guarantees). *)
    Fun.protect
      ~finally:(fun () ->
        shut t ~crash:false;
        t.writer.Env.w_close ())
      (fun () -> flush t)
  end

let abandon t =
  if not t.closed then begin
    t.closed <- true;
    (* Crash simulation: bytes already handed to the OS survive (the env
       writer is unbuffered); pending unacknowledged records are dropped,
       modeling the loss. Group riders parked at this point are in-flight
       unacknowledged commits: poisoning with [Env.Crashed] wakes them, a
       leader parked in a window included, so they raise instead of
       hanging or riding out the window. *)
    shut t ~crash:true;
    try t.writer.Env.w_close () with _ -> ()
  end

let path t = t.file_path
let queued t = Mutex.protect t.gm (fun () -> Queue.length t.pending)
let poisoned t = t.poisoned <> None
let written_bytes t = t.written
