(* A module that is [include Include_base] has no summary of its own for
   [take_a]: the analyzer must fall back to Include_base.take_a, which
   takes [a], so calling it under [b] inverts the declared (a b) order.
   bad_include.ml makes the same call qualified. *)

include Include_base

let wrong t = Mutex.protect t.b (fun () -> take_a t) (* BAD: LC001 *)
