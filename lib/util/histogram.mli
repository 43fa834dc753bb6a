(** Latency histogram over integer nanoseconds, the one bucket scheme of
    the store, its benches and its simulator.

    HdrHistogram's log-linear layout at 8 sub-buckets per octave: values
    below 16 ns get a bucket each, and every octave [[2^e, 2^(e+1))]
    above splits into 8 equal buckets, so a bucket is at most 1/8 of its
    lower edge wide. A percentile reports the midpoint of the bucket that
    holds the nearest-rank order statistic, which is within a factor of
    [2^(1/8)] of it. Values of [2^40] ns (about 18 minutes) and more share
    the last bucket.

    Buckets are atomic: any number of domains may {!record} into one
    histogram. Hot loops still keep one per domain and {!merge} at the
    end, so that they do not contend on a bucket. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one latency in nanoseconds (negative values count as 0). *)

val count : t -> int
(** Values recorded (the sum of {!counts}). *)

val sum_ns : t -> int
(** Sum of the values recorded. *)

val mean_ns : t -> float
(** [sum_ns / count]; 0 when empty. *)

val counts : t -> int array
(** A copy of the bucket counts; every histogram has the same number of
    buckets, so counts arrays combine element-wise. *)

val add_counts : t -> int array -> sum_ns:int -> unit
(** Add a {!counts} array whose values sum to [sum_ns] into [t], e.g. a
    snapshot of another histogram. *)

val merge : t list -> t
(** A fresh histogram holding every value recorded into the inputs. *)

val percentile : t -> float -> int
(** [percentile t 99.0] in nanoseconds; 0 when empty. *)

val percentile_of_counts : int array -> float -> int
(** {!percentile} over a {!counts} array, e.g. the difference of two
    reads of the same histogram. *)
