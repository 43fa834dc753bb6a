open Clsm_primitives

let src = Logs.Src.create "clsm.maintenance" ~doc:"cLSM maintenance scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type 'job work = Run of 'job | Due of float | Idle

(* What a worker does next: run a claimed job, or wait on the wakeup
   cell until [until], having read generation [seen] before the [next]
   that found nothing runnable. [timer]: the wait is for a due time, past
   the worker's linger. *)
type 'job step = Job of 'job | Wait of { seen : int; until : float; timer : bool }

type 'job t = {
  wakeup : Wakeup.t; (* idle workers wait on it with a deadline *)
  stopping : bool Atomic.t;
  num_workers : int;
  linger : float; (* seconds an idle worker waits for a wake *)
  pp : Format.formatter -> 'job -> unit;
  next : unit -> 'job work;
  run : 'job -> unit;
  spawn : (unit -> unit) -> unit Domain.t;
  spawn_failed : exn -> 'job option -> unit;
  jobs : int Atomic.t;
  pool : Mutex.t; (* guards the fields below *)
  emptied : Condition.t;
      (* on [pool]: [live] and [spawning] reached 0, or [stopped] set *)
  mutable live : int;
      (* worker slots held: by domains in the loop, and by wakers
         claiming for a domain they may spawn; never above
         [num_workers] *)
  mutable domains_live : int; (* of [live], held by domains *)
  mutable idle : int; (* of [domains_live], waiting for a wake or a time *)
  mutable timer : bool; (* one worker waits for a due time *)
  mutable spawning : int; (* spawns whose handle is not yet in [domains] *)
  mutable spawn_after : float; (* no spawn before, after a failed one *)
  mutable domains : unit Domain.t list; (* spawned, not yet joined *)
  mutable exited : Domain.id list; (* left the loop, not yet joined *)
  mutable stopped : bool; (* [stop] has joined every domain *)
}

(* [linger]: seconds a worker that finds nothing runnable waits for a
   wake before it exits. A domain per burst of jobs slows OCaml 5.1's
   major GC: in a probe, a fresh domain for each 30 ms burst of
   allocation, 25 a second, halved the major cycles and grew the heap
   2.6 times against one long-lived domain doing the same bursts, and a
   worker spawned per job burst tripled [put_compact]'s peak RSS. So a
   busy store keeps its workers between jobs, and an idle one has none
   a second after its last job. *)
let create ?(num_workers = 2) ?(linger = 1.0) ?(spawn = Domain.spawn) ~pp
    ~next ~run ~spawn_failed () =
  if num_workers < 1 then invalid_arg "Scheduler.create: num_workers < 1";
  {
    wakeup = Wakeup.create ();
    stopping = Atomic.make false;
    num_workers;
    linger;
    pp;
    next;
    run;
    spawn;
    spawn_failed;
    jobs = Atomic.make 0;
    pool = Mutex.create ();
    emptied = Condition.create ();
    live = 0;
    domains_live = 0;
    idle = 0;
    timer = false;
    spawning = 0;
    spawn_after = 0.0;
    domains = [];
    exited = [];
    stopped = false;
  }

(* Seconds without a spawn after [Domain.spawn] failed: a wake the
   failure handling causes must not retry it at once. *)
let spawn_damping = 1.0

let signal_emptied_locked t =
  if t.live = 0 && t.spawning = 0 then Condition.broadcast t.emptied
[@@requires_lock pool]

(* Give up a slot: a pool domain's for good (it is joined later), or a
   waker's reservation. *)
let leave_locked t ~domain =
  t.live <- t.live - 1;
  if domain then begin
    t.domains_live <- t.domains_live - 1;
    t.exited <- Domain.self () :: t.exited
  end;
  signal_emptied_locked t
[@@requires_lock pool]

(* The exit-vs-wake handshake, stated once. A worker that found nothing
   runnable leaves, or starts to wait, only under [pool], and only while
   the generation is still the [seen] it read before that [next];
   otherwise it claims again. A wake advances the generation first and
   then reads [live] and [idle] under [pool]. So either the waker finds
   a free slot and no idle worker, and claims itself, or some holder
   calls [next] after the advance: a worker running a job reads a fresh
   [seen] when the job ends, one about to leave or wait finds the
   generation moved and claims again, and one already waiting was woken
   by the advance. Either way some [next] runs after the work appeared,
   and no job is stranded.

   A worker that found nothing waits for a wake until its linger ends
   (or an earlier due time), then leaves; the first one past its linger
   that sees a due time stays as the timer and waits for it. A waker
   becomes the timer (spawning a domain for it) only when no domain is
   in the loop: one that is will call [next] again, by the same
   argument, and see the due time itself. *)
let settle t ~domain ~linger_end ~seen ~due =
  Mutex.protect t.pool (fun () ->
      let wait until ~timer =
        if timer then t.timer <- true;
        t.idle <- t.idle + 1;
        `Wait (until, timer)
      in
      if Atomic.get t.stopping then begin
        leave_locked t ~domain;
        `Left
      end
      else if Wakeup.current t.wakeup <> seen then `Again
      else if domain && Clsm_util.Time_ns.now_s () < linger_end then
        wait ~timer:false
          (match due with Some d -> Float.min d linger_end | None -> linger_end)
      else
        match due with
        | Some due when (not t.timer) && (domain || t.domains_live = 0) ->
            wait due ~timer:true
        | Some _ | None ->
            leave_locked t ~domain;
            `Left)
[@@excludes_locks]

let claim t =
  match t.next () with
  | w -> w
  | exception e ->
      Log.err (fun m -> m "next raised %s" (Printexc.to_string e));
      Idle

(* Claim for the slot the caller holds until it has a step to take, or
   give the slot up. [domain]: the caller is a pool domain, not a waker
   holding a reservation; it may wait for work until [linger_end]. *)
let rec decide t ~domain ~linger_end =
  let seen = Wakeup.current t.wakeup in
  match
    if Atomic.get t.stopping then settle t ~domain ~linger_end ~seen ~due:None
    else
      match claim t with
      | Run job -> `Job job
      | Due due -> settle t ~domain ~linger_end ~seen ~due:(Some due)
      | Idle -> settle t ~domain ~linger_end ~seen ~due:None
  with
  | `Job job -> Some (Job job)
  | `Wait (until, timer) -> Some (Wait { seen; until; timer })
  | `Again -> decide t ~domain ~linger_end
  | `Left -> None
[@@excludes_locks]

(* Join the domains that have left the loop: done by each new worker,
   off the waker's path, so at most a few exited handles are ever
   kept. *)
let reap t =
  let gone =
    Mutex.protect t.pool (fun () ->
        let gone, kept =
          List.partition
            (fun d -> List.mem (Domain.get_id d) t.exited)
            t.domains
        in
        t.domains <- kept;
        let ids = List.map Domain.get_id gone in
        t.exited <- List.filter (fun id -> not (List.mem id ids)) t.exited;
        gone)
  in
  List.iter Domain.join gone
[@@excludes_locks]

(* [linger_end]: when this domain, having run its last job, may leave. *)
let rec serve t ~linger_end step =
  let linger_end =
    match step with
    | Job job ->
        Atomic.incr t.jobs;
        (try t.run job
         with e ->
           Log.err (fun m -> m "%a raised %s" t.pp job (Printexc.to_string e)));
        Clsm_util.Time_ns.now_s () +. t.linger
    | Wait { seen; until; timer } ->
        ignore (Wakeup.wait_until t.wakeup ~seen ~deadline:until : int);
        Mutex.protect t.pool (fun () ->
            t.idle <- t.idle - 1;
            if timer then t.timer <- false);
        linger_end
  in
  match decide t ~domain:true ~linger_end with
  | Some step -> serve t ~linger_end step
  | None -> ()
[@@excludes_locks]

(* Give the step to a new domain. The slot is the caller's until then;
   if no domain can be had, the slot is given back, and [spawn_failed]
   releases the job's claim. *)
let spawn_worker t step =
  Mutex.protect t.pool (fun () ->
      t.spawning <- t.spawning + 1;
      t.domains_live <- t.domains_live + 1);
  match
    t.spawn (fun () ->
        reap t;
        (* a domain spawned to wait for a due time does not linger *)
        serve t ~linger_end:neg_infinity step)
  with
  | d ->
      Mutex.protect t.pool (fun () ->
          t.domains <- d :: t.domains;
          t.spawning <- t.spawning - 1;
          signal_emptied_locked t)
  | exception e ->
      Mutex.protect t.pool (fun () ->
          t.live <- t.live - 1;
          t.domains_live <- t.domains_live - 1;
          t.spawning <- t.spawning - 1;
          (match step with
          | Wait _ ->
              t.idle <- t.idle - 1;
              t.timer <- false
          | Job _ -> ());
          t.spawn_after <- Clsm_util.Time_ns.now_s () +. spawn_damping;
          signal_emptied_locked t);
      Log.err (fun m -> m "cannot spawn a worker: %s" (Printexc.to_string e));
      t.spawn_failed e (match step with Job job -> Some job | Wait _ -> None)
[@@excludes_locks]

let wake t =
  if not (Atomic.get t.stopping) then begin
    Wakeup.signal t.wakeup;
    let reserved =
      Mutex.protect t.pool (fun () ->
          let free =
            t.live < t.num_workers
            && t.idle = 0
            && (not (Atomic.get t.stopping))
            && Clsm_util.Time_ns.now_s () >= t.spawn_after
          in
          if free then t.live <- t.live + 1;
          free)
    in
    if reserved then
      match decide t ~domain:false ~linger_end:neg_infinity with
      | Some step -> spawn_worker t step
      | None -> ()
  end
[@@excludes_locks]

let start = wake

(* The first caller stops the pool; a later one waits until it has. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Wakeup.signal t.wakeup;
    let domains =
      Mutex.protect t.pool (fun () ->
          while t.live > 0 || t.spawning > 0 do
            Condition.wait t.emptied t.pool
          done;
          let ds = t.domains in
          t.domains <- [];
          t.exited <- [];
          ds)
    in
    List.iter Domain.join domains;
    Wakeup.close t.wakeup;
    Mutex.protect t.pool (fun () ->
        t.stopped <- true;
        Condition.broadcast t.emptied)
  end
  else
    Mutex.protect t.pool (fun () ->
        while not t.stopped do
          Condition.wait t.emptied t.pool
        done)
[@@excludes_locks]

let jobs_run t = Atomic.get t.jobs
let live_workers t = Mutex.protect t.pool (fun () -> t.live)
