(* A deadline waiter's self-pipe: [signal] writes a byte to it. *)
type pipe = { r : Unix.file_descr; w : Unix.file_descr }

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable generation : int;
  mutable waiting : int;
  mutable parked : pipe list; (* one per deadline waiter in [select] *)
  mutable spare : pipe list; (* drained, for the next deadline waiter *)
}

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    generation = 0;
    waiting = 0;
    parked = [];
    spare = [];
  }

let current t = Mutex.protect t.mutex (fun () -> t.generation)

let signal t =
  Mutex.protect t.mutex (fun () ->
      t.generation <- t.generation + 1;
      Condition.broadcast t.cond;
      List.iter
        (fun p ->
          (* non-blocking: a byte already in the pipe wakes its waiter *)
          try ignore (Unix.single_write_substring p.w "!" 0 1)
          with Unix.Unix_error _ -> ())
        t.parked)

let wait_locked t ~seen =
  t.waiting <- t.waiting + 1;
  while t.generation = seen do
    Condition.wait t.cond t.mutex
  done;
  t.waiting <- t.waiting - 1;
  t.generation
[@@requires_lock wakeup] [@@drops_lock wakeup]

let wait t ~seen = Mutex.protect t.mutex (fun () -> wait_locked t ~seen)

(* Empty a pipe once its waiter has left it: every byte in it was
   written for that waiter, so the pipe's next one starts on an empty
   pipe. *)
let drain_locked rfd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read rfd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()
[@@requires_lock wakeup]

let open_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w }

(* OCaml's [Condition] has no timed wait, so a deadline waiter blocks in
   [select] on a self-pipe of its own, without the mutex. It parks the
   pipe under the mutex after checking the generation, and [signal]
   writes a byte to every parked pipe, so a signal between the check
   and the [select] still wakes it. It unparks under the mutex and
   drains the pipe, which then waits, spare, for the next deadline
   waiter: a cell opens at most as many pipes as it ever had deadline
   waiters at once. *)
let wait_until t ~seen ~deadline =
  let parked =
    Mutex.protect t.mutex (fun () ->
        if t.generation <> seen then `Now t.generation
        else
          match t.spare with
          | p :: rest ->
              t.spare <- rest;
              t.parked <- p :: t.parked;
              `Parked p
          | [] -> (
              match open_pipe () with
              | p ->
                  t.parked <- p :: t.parked;
                  `Parked p
              | exception Unix.Unix_error _ ->
                  (* no descriptor left: untimed, as below *)
                  `Now (wait_locked t ~seen)))
  in
  match parked with
  | `Now g -> g
  | `Parked p ->
      let rec park () =
        let left = deadline -. Clsm_util.Time_ns.now_s () in
        let waitable =
          left <= 0.0
          ||
          match Unix.select [ p.r ] [] [] left with
          | _ -> true
          | exception Unix.Unix_error (EINTR, _, _) -> true
          | exception Unix.Unix_error _ -> false
        in
        let woke =
          Mutex.protect t.mutex (fun () ->
              let pending =
                t.generation = seen && Clsm_util.Time_ns.now_s () < deadline
              in
              if pending && waitable then None
              else begin
                t.parked <- List.filter (fun q -> q != p) t.parked;
                drain_locked p.r;
                t.spare <- p :: t.spare;
                (* A pipe [select] refuses (a descriptor past its limit)
                   leaves the wait untimed: it returns at the next
                   signal. So does a pipe that cannot be opened. *)
                Some (if pending then wait_locked t ~seen else t.generation)
              end)
        in
        match woke with None -> park () | Some g -> g
      in
      park ()

let close t =
  let pipes =
    Mutex.protect t.mutex (fun () ->
        let ps = t.spare @ t.parked in
        t.spare <- [];
        t.parked <- [];
        ps)
  in
  List.iter
    (fun p ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ p.r; p.w ])
    pipes

let waiters t =
  Mutex.protect t.mutex (fun () -> t.waiting + List.length t.parked)
