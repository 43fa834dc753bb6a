open Clsm_util

type result = {
  ops : int;
  keys_touched : int;
  elapsed : float;
  throughput : float;
  keys_per_sec : float;
  p50 : float;
  p90 : float;
  p99 : float;
  mean_latency : float;
}

let pp_result ppf r =
  Format.fprintf ppf
    "%d ops in %.2fs: %.0f ops/s (%.0f keys/s), p50=%.1fus p90=%.1fus p99=%.1fus"
    r.ops r.elapsed r.throughput r.keys_per_sec (r.p50 *. 1e6) (r.p90 *. 1e6)
    (r.p99 *. 1e6)

let result_of ~ops ~keys_touched ~elapsed hist =
  let secs pct = float_of_int (Histogram.percentile hist pct) *. 1e-9 in
  {
    ops;
    keys_touched;
    elapsed;
    throughput = float_of_int ops /. elapsed;
    keys_per_sec = float_of_int keys_touched /. elapsed;
    p50 = secs 50.0;
    p90 = secs 90.0;
    p99 = secs 99.0;
    mean_latency = Histogram.mean_ns hist *. 1e-9;
  }

let preload ?(seed = 42) (store : Store_ops.t) (spec : Workload_spec.t) ~count =
  let rng = Rng.create seed in
  let space = Key_dist.space spec.Workload_spec.keys in
  for i = 0 to count - 1 do
    let key =
      Key_dist.key_of_index ~key_len:spec.Workload_spec.key_len (i mod space)
    in
    store.Store_ops.put ~key ~value:(Workload_spec.value_for spec rng)
  done;
  store.Store_ops.compact ()

let run ?(seed = 7) ~threads ~ops_per_thread (store : Store_ops.t)
    (spec : Workload_spec.t) =
  if threads < 1 || ops_per_thread < 1 then invalid_arg "Driver.run";
  let base_rng = Rng.create seed in
  let worker_seeds = List.init threads (fun _ -> Rng.next base_rng) in
  let keys_touched = Atomic.make 0 in
  let worker wseed () =
    let rng = Rng.create wseed in
    let hist = Histogram.create () in
    let rmw_pad = ref 0 in
    for _ = 1 to ops_per_thread do
      let op = Workload_spec.next_op spec rng in
      let t0 = Time_ns.now_ns () in
      (match op with
      | Workload_spec.Read ->
          ignore (store.Store_ops.get (Workload_spec.next_key spec rng));
          Atomic.incr keys_touched
      | Workload_spec.Write ->
          store.Store_ops.put
            ~key:(Workload_spec.next_key spec rng)
            ~value:(Workload_spec.value_for spec rng);
          Atomic.incr keys_touched
      | Workload_spec.Scan ->
          let len = Workload_spec.scan_len spec rng in
          let result =
            store.Store_ops.scan ~start:(Workload_spec.next_key spec rng)
              ~limit:len
          in
          ignore (Atomic.fetch_and_add keys_touched (List.length result))
      | Workload_spec.Rmw ->
          (* put-if-absent flavor: vary the key with a per-worker pad so
             conflicts stay plausible but inserts keep succeeding *)
          incr rmw_pad;
          ignore
            (store.Store_ops.put_if_absent
               ~key:(Workload_spec.next_key spec rng)
               ~value:(Workload_spec.value_for spec rng));
          Atomic.incr keys_touched);
      Histogram.record hist (Time_ns.now_ns () - t0)
    done;
    hist
  in
  let t0 = Time_ns.now_ns () in
  let domains = List.map (fun s -> Domain.spawn (worker s)) worker_seeds in
  let hists = List.map Domain.join domains in
  let elapsed = float_of_int (Time_ns.now_ns () - t0) *. 1e-9 in
  result_of ~ops:(threads * ops_per_thread)
    ~keys_touched:(Atomic.get keys_touched) ~elapsed (Histogram.merge hists)
