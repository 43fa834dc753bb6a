(* A qualified call through an [include]: Include_facade.take_a is
   Include_base.take_a, which takes [a]. *)

let wrong t =
  Mutex.protect t.Include_base.b (fun () ->
      Include_facade.take_a t (* BAD: LC001 *))
