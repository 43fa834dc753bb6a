type 'a t = 'a Refcounted.t Atomic.t

let create cell = Atomic.make cell

(* The backoff is made on the first retired cell only, so an
   uncontended acquire allocates nothing. *)
let rec acquire_from t backoff =
  let cell = Atomic.get t in
  if Refcounted.try_incr cell then
    (* Re-validate: if the pointer moved while we were incrementing, the
       reference we took may be to a retired component — undo and retry. *)
    if Atomic.get t == cell then cell
    else begin
      Refcounted.decr cell;
      acquire_from t backoff
    end
  else begin
    let b = match backoff with Some b -> b | None -> Backoff.create () in
    Backoff.once b;
    acquire_from t (Some b)
  end

let acquire t = acquire_from t None

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
