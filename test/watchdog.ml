(* Run a call on its own domain and wait a bounded time for its
   outcome, so a call that never returns fails its test instead of
   stalling the suite. A domain that overruns is left behind. *)

let run ~within f =
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set outcome (Some (match f () with v -> Ok v | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. within in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  match Atomic.get outcome with
  | None -> None
  | Some r ->
      Domain.join d;
      Some r

(* [f] must raise [Clsm_core.Store_sig.Closed] within [within] seconds. *)
let expect_closed ?(within = 2.0) what f =
  match run ~within f with
  | Some (Error Clsm_core.Store_sig.Closed) -> ()
  | Some (Error e) ->
      Alcotest.failf "%s on a closed store raised %s, not Closed" what
        (Printexc.to_string e)
  | Some (Ok _) -> Alcotest.failf "%s on a closed store returned" what
  | None -> Alcotest.failf "%s on a closed store: no outcome %.0f s later" what within
