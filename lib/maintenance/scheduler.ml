open Clsm_primitives

let src = Logs.Src.create "clsm.maintenance" ~doc:"cLSM maintenance scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type 'job t = {
  wakeup : Wakeup.t;
  stopping : bool Atomic.t;
  num_workers : int;
  tick : float option;
  pp : Format.formatter -> 'job -> unit;
  next : unit -> 'job option;
  run : 'job -> unit;
  jobs : int Atomic.t;
  mutable domains : unit Domain.t list;
  lifecycle : Mutex.t; (* serializes start/stop *)
  mutable started : bool;
}

let create ?(num_workers = 2) ?tick ~pp ~next ~run () =
  if num_workers < 1 then invalid_arg "Scheduler.create: num_workers < 1";
  {
    wakeup = Wakeup.create ();
    stopping = Atomic.make false;
    num_workers;
    tick;
    pp;
    next;
    run;
    jobs = Atomic.make 0;
    domains = [];
    lifecycle = Mutex.create ();
    started = false;
  }

let worker_loop t id =
  let rec go seen =
    if Atomic.get t.stopping then ()
    else
      match t.next () with
      | Some job ->
          Atomic.incr t.jobs;
          (try t.run job
           with e ->
             Log.err (fun m ->
                 m "worker %d: %a raised %s" id t.pp job (Printexc.to_string e)));
          go (Wakeup.current t.wakeup)
      | None -> go (Wakeup.wait t.wakeup ~seen)
      | exception e ->
          Log.err (fun m ->
              m "worker %d: next raised %s" id (Printexc.to_string e));
          go (Wakeup.wait t.wakeup ~seen)
  in
  go (Wakeup.current t.wakeup)

(* The clock for time-due work. Sleeps in small slices so [stop] never
   waits a full (possibly long) tick to join this domain. *)
let ticker_loop t period =
  let slice = 0.05 in
  while not (Atomic.get t.stopping) do
    let deadline = Clsm_util.Time_ns.now_s () +. period in
    let rec nap () =
      if not (Atomic.get t.stopping) then begin
        let left = deadline -. Clsm_util.Time_ns.now_s () in
        if left > 0. then begin
          Unix.sleepf (Float.min slice left);
          nap ()
        end
      end
    in
    nap ();
    if not (Atomic.get t.stopping) then Wakeup.signal t.wakeup
  done

let start t =
  Mutex.protect t.lifecycle (fun () ->
      if not t.started then begin
        t.started <- true;
        let workers =
          List.init t.num_workers (fun id ->
              Domain.spawn (fun () -> worker_loop t id))
        in
        let ticker =
          Option.map
            (fun period -> Domain.spawn (fun () -> ticker_loop t period))
            t.tick
        in
        t.domains <- Option.to_list ticker @ workers
      end)

let wake t = if not (Atomic.get t.stopping) then Wakeup.signal t.wakeup

let stop t =
  Mutex.protect t.lifecycle (fun () ->
      if not (Atomic.exchange t.stopping true) then begin
        Wakeup.signal t.wakeup;
        List.iter Domain.join t.domains;
        t.domains <- []
      end)

let jobs_run t = Atomic.get t.jobs
