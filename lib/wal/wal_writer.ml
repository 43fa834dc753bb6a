open Clsm_primitives
module Time_ns = Clsm_util.Time_ns
module Env = Clsm_env.Env

type group_config = { max_batch : int; max_delay_us : int }
type mode = Sync | Async | Group of group_config

type observer = {
  on_group_commit : records:int -> unit;
  on_commit_wait : ns:int -> unit;
}

type t = {
  mode : mode;
  file_path : string;
  writer : Env.writer;
  queue : string Mpmc_queue.t;
      (* Async-mode records and non-durable [enqueue]s awaiting a drain *)
  io_mutex : Mutex.t; (* serializes the drain/write path *)
  mutable closed : bool;
  mutable poisoned : exn option;
      (* first IO failure; written under [io_mutex], monotonic None->Some *)
  mutable written : int;
      (* bytes fully handed to the env writer, advanced under [io_mutex]
         only AFTER a physical append returns: the file prefix
         [0, written) contains whole records and no in-flight bytes, so
         a concurrent reader (scrub's WAL-tail check) that stops there
         can never misread a half-written record as corruption *)
  observer : observer option;
  (* Group-commit state, all under [gm]. Neither gm nor io_mutex is
     ever held while taking the other — the leader releases [gm] before
     touching IO and re-acquires it afterwards. Both are order leaves
     and no-block locks in tools/lockcheck/lockspec.sexp; `dune build
     @lint` enforces this. *)
  gm : Mutex.t;
  gcond : Condition.t;
  gpending : (int * string) Queue.t;
      (* (ticket, payload) enqueued by riders, FIFO by ticket *)
  mutable gnext : int; (* next ticket to hand out *)
  mutable gdurable : int; (* highest ticket known durable *)
  mutable gleader : bool; (* a leader is currently committing *)
  mutable garmed : bool;
      (* true when records arrived while the previous round was doing IO:
         the concurrency signal that arms the accumulation window (see
         [lead_round_locked]) *)
}

let create ?(mode = Async) ?(env = Env.unix) ?observer file_path =
  {
    mode;
    file_path;
    writer = env.Env.create_writer file_path;
    queue = Mpmc_queue.create ();
    io_mutex = Mutex.create ();
    closed = false;
    poisoned = None;
    written = 0;
    observer;
    gm = Mutex.create ();
    gcond = Condition.create ();
    gpending = Queue.create ();
    gnext = 0;
    gdurable = -1;
    gleader = false;
    garmed = false;
  }

(* Fsync-gate semantics: after any append or fsync failure the durability
   of previously acknowledged bytes is unknown, so the writer is
   permanently poisoned — every later operation re-raises the original
   failure instead of silently retrying over a gap. *)
let check_poisoned t = match t.poisoned with Some e -> raise e | None -> ()

let poison_locked t e = if t.poisoned = None then t.poisoned <- Some e
[@@requires_lock io_mutex]

let observe_commit t ~records ~since_ns =
  match t.observer with
  | None -> ()
  | Some o ->
      if records > 0 then o.on_group_commit ~records;
      o.on_commit_wait ~ns:(max 0 (Time_ns.now_ns () - since_ns))

(* Pops the async queue in one pass so a failure
   part-way through cannot leave it half-drained for the next caller:
   either way the popped records are gone (they were never acknowledged)
   and the queue itself stays structurally sound. *)
let drain_locked t =
  let buf = Buffer.create 4096 in
  let rec pump () =
    match Mpmc_queue.pop t.queue with
    | Some payload ->
        Wal_record.encode buf payload;
        pump ()
    | None -> ()
  in
  pump ();
  if Buffer.length buf > 0 then begin
    t.writer.Env.w_append (Buffer.contents buf);
    t.written <- t.written + Buffer.length buf
  end
[@@requires_lock io_mutex]

(* ---------- group commit (leader/rider) ---------- *)

(* One leader round. Called and returns with [gm] held; [gm] is released
   around the accumulation sleep and the IO so riders can keep enqueueing
   while the leader writes. On IO failure the writer is poisoned under
   [io_mutex] and every parked rider is woken to re-raise it; the round
   itself never raises (the caller's wait loop surfaces the poison). *)
let lead_round_locked t cfg ~accumulate =
  t.gleader <- true;
  if
    accumulate && cfg.max_delay_us > 0 && t.garmed
    && Queue.length t.gpending < cfg.max_batch
  then begin
    (* Accumulation window: let concurrent committers board this batch.
       OCaml's Condition has no timed wait, so the leader sleeps with the
       lock dropped; riders arriving meanwhile park on [gcond].

       The window is adaptive: it only opens when at least one record
       arrived while the previous round was inside its write+fsync —
       evidence that concurrent committers exist. An uncontended writer
       therefore never pays the delay, while under contention the window
       closes the re-arrival gap: without it, writers acknowledged by
       round k re-enqueue just after round k+1's leader drained, and the
       batch size oscillates around half the committer count instead of
       reaching it. *)
    Mutex.unlock t.gm;
    Unix.sleepf (float_of_int cfg.max_delay_us *. 1e-6);
    Mutex.lock t.gm
  end;
  let batch = ref [] and hi = ref (-1) and n = ref 0 in
  while !n < cfg.max_batch && not (Queue.is_empty t.gpending) do
    let seq, payload = Queue.pop t.gpending in
    batch := payload :: !batch;
    hi := seq;
    incr n
  done;
  let payloads = List.rev !batch in
  Mutex.unlock t.gm;
  let committed =
    match payloads with
    | [] -> true
    | _ ->
        Mutex.lock t.io_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.io_mutex)
          (fun () ->
            match t.poisoned with
            | Some _ -> false
            | None -> (
                let buf = Buffer.create 4096 in
                List.iter (Wal_record.encode buf) payloads;
                try
                  t.writer.Env.w_append (Buffer.contents buf);
                  t.written <- t.written + Buffer.length buf;
                  t.writer.Env.w_fsync ();
                  true
                with e ->
                  poison_locked t e;
                  false))
  in
  Mutex.lock t.gm;
  t.gleader <- false;
  (* Concurrency evidence, either form: records arrived while we were in
     the write+fsync, or this batch itself carried several committers
     (after a full boarding nobody is left to arrive mid-IO, so the batch
     size must keep the window armed or it would disarm every other
     round and the batch size would oscillate between 1 and full). *)
  t.garmed <- List.length payloads > 1 || not (Queue.is_empty t.gpending);
  if committed && !hi >= 0 then begin
    t.gdurable <- max t.gdurable !hi;
    match t.observer with
    | Some o -> o.on_group_commit ~records:(List.length payloads)
    | None -> ()
  end;
  (* Wake everyone: riders whose ticket is now durable return, the rest
     either elect the next leader or observe the poison and raise. *)
  Condition.broadcast t.gcond
[@@requires_lock gm] [@@drops_lock gm]

let append_group t cfg payload =
  let t0 = Time_ns.now_ns () in
  Mutex.lock t.gm;
  let result =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.gm)
      (fun () ->
        match t.poisoned with
        | Some e -> Error e
        | None ->
            let my = t.gnext in
            t.gnext <- my + 1;
            Queue.push (my, payload) t.gpending;
            let rec wait () =
              if t.gdurable >= my then Ok ()
              else
                match t.poisoned with
                | Some e -> Error e
                | None ->
                    if t.gleader then Condition.wait t.gcond t.gm
                    else lead_round_locked t cfg ~accumulate:true;
                    wait ()
            in
            wait ())
  in
  match result with
  | Ok () -> (
      match t.observer with
      | Some o -> o.on_commit_wait ~ns:(max 0 (Time_ns.now_ns () - t0))
      | None -> ())
  | Error e -> raise e

(* Drive leader rounds (no accumulation delay) until every record that
   was pending when we were called is durable, or the writer is poisoned.
   Riders parked at that point are settled on our fsync. *)
let settle_group t cfg =
  Mutex.lock t.gm;
  let result =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.gm)
      (fun () ->
        let target = t.gnext - 1 in
        let rec loop () =
          if t.gdurable >= target then Ok ()
          else
            match t.poisoned with
            | Some e -> Error e
            | None ->
                if t.gleader then Condition.wait t.gcond t.gm
                else lead_round_locked t cfg ~accumulate:false;
                loop ()
        in
        loop ())
  in
  match result with Ok () -> () | Error e -> raise e

(* ---------- public operations ---------- *)

let append t payload =
  if t.closed then invalid_arg "Wal_writer.append: closed";
  check_poisoned t;
  match t.mode with
  | Group cfg -> append_group t cfg payload
  | Sync ->
      let t0 = Time_ns.now_ns () in
      Mutex.lock t.io_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.io_mutex)
        (fun () ->
          check_poisoned t;
          let buf =
            Buffer.create (String.length payload + Wal_record.header_length)
          in
          Wal_record.encode buf payload;
          try
            t.writer.Env.w_append (Buffer.contents buf);
            t.written <- t.written + Buffer.length buf;
            t.writer.Env.w_fsync ()
          with e ->
            poison_locked t e;
            raise e);
      observe_commit t ~records:1 ~since_ns:t0
  | Async ->
      Mpmc_queue.push t.queue payload;
      (* Opportunistic group commit: whoever gets the lock drains for all.
         A failure here poisons the writer; it surfaces on the next
         [append] or [flush] (an async append itself acknowledges
         nothing). *)
      if Mutex.try_lock t.io_mutex then begin
        (match t.poisoned with
        | Some _ -> ()
        | None -> ( try drain_locked t with e -> poison_locked t e));
        Mutex.unlock t.io_mutex
      end

let enqueue t payload =
  if t.closed then invalid_arg "Wal_writer.enqueue: closed";
  check_poisoned t;
  (* Queue without any durability work or acknowledgement, regardless of
     mode. Recovery uses this to re-log an entire replayed memtable as
     one batch: a blocking [append] per record would pay one fsync (and,
     in [Group] mode, one accumulation window) per already-recovered
     record. A single [flush] afterwards makes the batch durable. *)
  Mpmc_queue.push t.queue payload

let flush t =
  (* Settle parked group riders first: their records live in [gpending],
     not the async queue, and must be made durable by leader rounds so
     their tickets publish. Then drain the async queue and fsync. *)
  (match t.mode with Group cfg -> settle_group t cfg | Sync | Async -> ());
  Mutex.lock t.io_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.io_mutex)
    (fun () ->
      (* Poison check runs under the lock: once a failure has poisoned
         the writer, every later flush — including one that was already
         blocked on the mutex while the failure happened — deterministically
         re-raises the original exception without touching the queue or
         issuing IO (flush is idempotent after poisoning). *)
      check_poisoned t;
      try
        drain_locked t;
        t.writer.Env.w_fsync ()
      with e ->
        poison_locked t e;
        raise e)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* The descriptor is released even when the final flush fails; the
       failure still propagates (a swallowed fsync error here would
       silently drop acknowledged-durable guarantees). *)
    Fun.protect ~finally:(fun () -> t.writer.Env.w_close ()) (fun () -> flush t)
  end

let abandon t =
  if not t.closed then begin
    t.closed <- true;
    (* Crash simulation: bytes already handed to the OS survive (the env
       writer is unbuffered); the queue's unacknowledged records are
       dropped, modeling the loss. Group riders parked at this point are
       in-flight unacknowledged commits: poison with [Env.Crashed] and
       wake them so they raise instead of hanging forever. *)
    Mutex.protect t.io_mutex (fun () -> poison_locked t Env.Crashed);
    Mutex.protect t.gm (fun () -> Condition.broadcast t.gcond);
    try t.writer.Env.w_close () with _ -> ()
  end

let path t = t.file_path

let queued t =
  Mpmc_queue.length t.queue
  + Mutex.protect t.gm (fun () -> Queue.length t.gpending)

let poisoned t = t.poisoned <> None
let written_bytes t = t.written
