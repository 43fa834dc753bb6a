open Clsm_primitives
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
         (see [shut_group]). *)
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
[@@requires_lock io_mutex]

(* Pops the async queue in one pass so a failure
   part-way through cannot leave it half-drained for the next caller:
   either way the popped records are gone (they were never acknowledged)
   and the queue itself stays structurally sound. *)
let drain_locked t =
  (* one async put's worth is the common case; a 4 KB start would be a
     major-heap allocation per put *)
  let buf = Buffer.create 512 in
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

(* The rider whose record completes the window's target wakes the parked
   leader. Called under [gm], so it cannot race the leader's decision to
   park (made under [gm]) or [shut_group] closing the pipe; the write end
   is non-blocking, and a full pipe already wakes the leader. *)
let kick_locked t =
  match t.gwake with
  | Some (_, w) -> (
      try ignore (Unix.single_write_substring w "!" 0 1)
      with Unix.Unix_error _ -> ())
  | None -> ()
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

(* One leader round. Called and returns with [gm] held; [gm] is released
   around the accumulation window and the IO so riders can keep
   enqueueing while the leader waits or writes. On IO failure the writer
   is poisoned under [io_mutex] and every parked rider is woken to
   re-raise it; the round itself never raises (the caller's wait loop
   surfaces the poison). *)
let lead_round_locked t cfg ~accumulate =
  t.gleader <- true;
  let target = min cfg.max_batch t.gtarget in
  (match t.gwake with
  | Some (rfd, _) when accumulate && Queue.length t.gpending < target ->
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
        if Queue.length t.gpending >= target then true
        else
          let left = deadline - Time_ns.now_ns () in
          if left <= 0 || t.gwake = None then false
          else begin
            Mutex.unlock t.gm;
            let parked = park rfd ~ns:left in
            Mutex.lock t.gm;
            if parked then board () else Queue.length t.gpending >= target
          end
      in
      let boarded = board () in
      t.gwindow <- 0;
      Option.iter (fun o -> o.on_window ~boarded) t.observer
  | Some _ | None -> ());
  let batch = ref [] and hi = ref (-1) and n = ref 0 and bytes = ref 0 in
  while !n < cfg.max_batch && not (Queue.is_empty t.gpending) do
    let seq, payload = Queue.pop t.gpending in
    batch := payload :: !batch;
    hi := seq;
    incr n;
    bytes := !bytes + Wal_record.header_length + String.length payload
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
                (* sized to the batch: a fixed 4 KB start would be a
                   major-heap allocation every round *)
                let buf = Buffer.create !bytes in
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
  (* The next round expects this batch back plus whoever queued behind
     it; a round that found nothing to do predicts a lone writer. *)
  t.gtarget <- max 1 (!n + Queue.length t.gpending);
  if committed && !hi >= 0 then begin
    t.gdurable <- max t.gdurable !hi;
    match t.observer with
    | Some o -> o.on_group_commit ~records:!n
    | None -> ()
  end;
  (* Wake everyone: riders whose ticket is now durable return, the rest
     either elect the next leader or observe the poison and raise. *)
  Condition.broadcast t.gcond
[@@requires_lock gm] [@@drops_lock gm]

let append_group t cfg ~alone payload =
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
            if Queue.length t.gpending = t.gwindow then kick_locked t;
            let rec wait () =
              if t.gdurable >= my then Ok ()
              else
                match t.poisoned with
                | Some e -> Error e
                | None ->
                    if t.gleader then Condition.wait t.gcond t.gm
                    else lead_round_locked t cfg ~accumulate:(not alone);
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

(* Wake everything parked on the group state, and close the self-pipe
   once no leader can be inside a window. Clearing [gwake] stops any
   later leader from opening one; a parked leader is kicked out of its
   [select] and sees it cleared; the descriptors are closed only after
   [gwindow] is back to 0, so no leader ever selects on a descriptor
   number the process may since have reused. The broadcast wakes parked
   riders to re-check the poison. *)
let shut_group t =
  Mutex.protect t.gm (fun () ->
      let pipe = t.gwake in
      kick_locked t;
      t.gwake <- None;
      Condition.broadcast t.gcond;
      match pipe with
      | None -> ()
      | Some (r, w) ->
          while t.gwindow > 0 do
            Condition.wait t.gcond t.gm
          done;
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ r; w ])

(* ---------- public operations ---------- *)

let append ?(alone = false) t payload =
  if t.closed then invalid_arg "Wal_writer.append: closed";
  check_poisoned t;
  match t.mode with
  | Group cfg -> append_group t cfg ~alone payload
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
  (match t.mode with Group cfg -> settle_group t cfg | Async -> ());
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
    Fun.protect
      ~finally:(fun () ->
        shut_group t;
        t.writer.Env.w_close ())
      (fun () -> flush t)
  end

let abandon t =
  if not t.closed then begin
    t.closed <- true;
    (* Crash simulation: bytes already handed to the OS survive (the env
       writer is unbuffered); the queue's unacknowledged records are
       dropped, modeling the loss. Group riders parked at this point are
       in-flight unacknowledged commits: poison with [Env.Crashed] and
       wake them, a leader parked in a window included, so they raise
       instead of hanging or riding out the window. *)
    Mutex.protect t.io_mutex (fun () -> poison_locked t Env.Crashed);
    shut_group t;
    try t.writer.Env.w_close () with _ -> ()
  end

let path t = t.file_path

let queued t =
  Mpmc_queue.length t.queue
  + Mutex.protect t.gm (fun () -> Queue.length t.gpending)

let poisoned t = t.poisoned <> None
let written_bytes t = t.written
