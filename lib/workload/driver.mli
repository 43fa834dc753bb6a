(** Multi-domain benchmark driver: real concurrent execution of a
    workload against a store (this is the "measured" mode; the paper-shape
    figures come from the simulator, calibrated by these numbers). *)

type result = {
  ops : int;
  keys_touched : int;  (** scans count every key they return *)
  elapsed : float;
  throughput : float;  (** ops/s *)
  keys_per_sec : float;
  p50 : float;
  p90 : float;
  p99 : float;
  mean_latency : float;
}

val pp_result : Format.formatter -> result -> unit

val result_of :
  ops:int -> keys_touched:int -> elapsed:float -> Clsm_util.Histogram.t -> result
(** Summarize a run of [elapsed] seconds whose per-op latencies (ns) are
    in the histogram; latencies in the result are in seconds. *)

val preload : ?seed:int -> Store_ops.t -> Workload_spec.t -> count:int -> unit
(** Sequentially insert [count] keys drawn from the spec's distribution
    indices 0.. so reads have something to hit; compacts afterwards. *)

val run :
  ?seed:int ->
  threads:int ->
  ops_per_thread:int ->
  Store_ops.t ->
  Workload_spec.t ->
  result
(** Spawn [threads] domains each executing [ops_per_thread] operations
    drawn from the spec, recording per-op latency. *)
