(** The store's one time source: the operating system's monotonic clock,
    read through the [bechamel.monotonic_clock] stub. Unlike the
    wall clock it never steps, so durations, deadlines and snapshot TTLs
    measured with it stay right across NTP adjustments. Its origin is
    arbitrary: compare readings, do not print them as dates. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin. Does not allocate. *)

val now_s : unit -> float
(** [now_ns] in seconds, for deadlines kept as [float] seconds. *)
