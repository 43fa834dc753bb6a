open Clsm_sim
open Clsm_workload
module Histogram = Clsm_util.Histogram

type config = {
  system : System.t;
  threads : int;
  workload : Workload_spec.t;
  costs : Costs.t;
  memtable_bytes : int;
  duration : float;
  compaction_threads : int;
  write_amplification : float option;
  throttle : bool;
  prefill : float;
  initial_l0 : int;
  seed : int;
}

let config ?(costs = Costs.default) ?(memtable_bytes = 128 * 1024 * 1024)
    ?(duration = 2.0) ?(compaction_threads = 1) ?write_amplification
    ?(throttle = false) ?(prefill = 0.5) ?(initial_l0 = 0) ?(seed = 1) ~system
    ~threads workload =
  {
    system;
    threads;
    workload;
    costs;
    memtable_bytes;
    duration;
    compaction_threads;
    write_amplification;
    throttle;
    prefill;
    initial_l0;
    seed;
  }

type outcome = {
  system : System.t;
  threads : int;
  ops : int;
  keys : int;
  throughput : float;
  keys_per_sec : float;
  p50 : float;
  p90 : float;
  p99 : float;
  stalls : int;
  rotations : int;
}

type counters = { mutable ops : int; mutable keys : int }

let spawn_workers (cfg : config) machine store counters hist =
  let base = Rng.create cfg.seed in
  for _ = 1 to cfg.threads do
    let rng = Rng.create (Rng.next base) in
    let rec step () =
      if Engine.now machine.Sim_store.engine < cfg.duration then begin
        let op = Workload_spec.next_op cfg.workload rng in
        let t0 = Engine.now machine.Sim_store.engine in
        (Sim_store.do_op store op) (fun keys ->
            Histogram.record hist
              (int_of_float ((Engine.now machine.Sim_store.engine -. t0) *. 1e9));
            counters.ops <- counters.ops + 1;
            counters.keys <- counters.keys + keys;
            step ())
      end
    in
    (* stagger start times so same-cost ops do not phase-lock *)
    Engine.schedule_after machine.Sim_store.engine
      (Rng.float rng *. 1e-5)
      step
  done

let outcome_of (cfg : config) ~ops ~keys ~stalls ~rotations hist =
  let secs pct = float_of_int (Histogram.percentile hist pct) *. 1e-9 in
  {
    system = cfg.system;
    threads = cfg.threads;
    ops;
    keys;
    throughput = float_of_int ops /. cfg.duration;
    keys_per_sec = float_of_int keys /. cfg.duration;
    p50 = secs 50.0;
    p90 = secs 90.0;
    p99 = secs 99.0;
    stalls;
    rotations;
  }

let make_store ?machine_threads ?per_op_overhead (cfg : config) machine
    ~threads ~seed =
  Sim_store.create ~machine ~costs:cfg.costs ~system:cfg.system ~threads
    ?machine_threads ?per_op_overhead ~workload:cfg.workload
    ~memtable_bytes:cfg.memtable_bytes
    ~compaction_threads:cfg.compaction_threads
    ?write_amplification:cfg.write_amplification ~throttle:cfg.throttle
    ~stop_at:cfg.duration ~prefill:cfg.prefill ~initial_l0:cfg.initial_l0 ~seed
    ()

let run (cfg : config) =
  let engine = Engine.create () in
  let machine = Sim_store.machine_of cfg.costs engine in
  let store = make_store cfg machine ~threads:cfg.threads ~seed:cfg.seed in
  Sim_store.start_background store;
  let counters = { ops = 0; keys = 0 } in
  let hist = Histogram.create () in
  spawn_workers cfg machine store counters hist;
  Engine.run_all engine;
  outcome_of cfg ~ops:counters.ops ~keys:counters.keys
    ~stalls:(Sim_store.stalls store)
    ~rotations:(Sim_store.rotations store)
    hist

let run_partitioned ~partitions (cfg : config) =
  if partitions < 1 || cfg.threads mod partitions <> 0 then
    invalid_arg "Experiment.run_partitioned";
  let engine = Engine.create () in
  let machine = Sim_store.machine_of cfg.costs engine in
  let per = cfg.threads / partitions in
  let counters = { ops = 0; keys = 0 } in
  let hist = Histogram.create () in
  let stalls = ref 0 and rotations = ref 0 in
  let stores =
    List.init partitions (fun i ->
        (* NOTE: per-partition thread count drives the contention model,
           matching "each small partition is served by a dedicated one
           quarter of the thread pool". *)
        let sub = { cfg with threads = per; seed = cfg.seed + (i * 7919) } in
        (* §2.2: many partitions carry routing and per-partition metadata
           costs; consolidated deployments avoid them. *)
        let store =
          make_store ~machine_threads:cfg.threads ~per_op_overhead:3.0e-6 sub
            machine ~threads:per ~seed:sub.seed
        in
        Sim_store.start_background store;
        spawn_workers sub machine store counters hist;
        store)
  in
  Engine.run_all engine;
  List.iter
    (fun s ->
      stalls := !stalls + Sim_store.stalls s;
      rotations := !rotations + Sim_store.rotations s)
    stores;
  outcome_of cfg ~ops:counters.ops ~keys:counters.keys ~stalls:!stalls
    ~rotations:!rotations hist
