type t = { mutable spins : int }

let max_spins = 1024
let create () = { spins = 1 }

let once t =
  for _ = 1 to t.spins do
    Domain.cpu_relax ()
  done;
  if t.spins < max_spins then t.spins <- t.spins * 2
