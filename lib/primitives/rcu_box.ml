type 'a t = 'a Refcounted.t Atomic.t

exception Closed

let create cell = Atomic.make cell

(* A cell whose count is already zero was swapped out (retry at once)
   or retired in place by close (raise): see the rule in the mli. *)
let rec acquire t =
  let cell = Atomic.get t in
  if Refcounted.try_incr cell then
    (* Re-validate: if the pointer moved while we were incrementing, the
       reference we took may be to a retired component — undo and retry. *)
    if Atomic.get t == cell then cell
    else begin
      Refcounted.decr cell;
      acquire t
    end
  else if Atomic.get t == cell then raise Closed
  else acquire t

let peek t = Atomic.get t

let swap t cell = Atomic.exchange t cell

let with_ref t f =
  let cell = acquire t in
  match f (Refcounted.value cell) with
  | v ->
      Refcounted.decr cell;
      v
  | exception e ->
      Refcounted.decr cell;
      raise e
