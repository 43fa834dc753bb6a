(* Included by include_facade.ml: a function that takes [a]. Clean on
   its own. *)

type t = { a : Mutex.t; b : Mutex.t }

let take_a t = Mutex.protect t.a (fun () -> ())
