(** Bounded exponential backoff for CAS retry loops.

    Each failed attempt doubles the number of [Domain.cpu_relax] spins,
    from 1 up to a cap of 1024, reducing cache-line ping-pong under
    contention. *)

type t

val create : unit -> t
(** Fresh backoff state at one spin. *)

val once : t -> unit
(** Spin for the current budget, then double it (up to the cap). *)
