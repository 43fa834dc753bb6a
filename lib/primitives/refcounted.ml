type 'a t = { payload : 'a; refs : int Atomic.t; release : 'a -> unit }

let create ~release payload =
  { payload; refs = Atomic.make 1; release }

let value t = t.payload

let rec try_incr t =
  let c = Atomic.get t.refs in
  if c = 0 then false
  else if Atomic.compare_and_set t.refs c (c + 1) then true
  else try_incr t

let decr t =
  let old = Atomic.fetch_and_add t.refs (-1) in
  assert (old >= 1);
  if old = 1 then t.release t.payload

let retire = decr
let count t = Atomic.get t.refs
