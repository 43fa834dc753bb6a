open Clsm_primitives
module Time_ns = Clsm_util.Time_ns

type config = { soft_l0 : int; hard_l0 : int; max_delay_ns : int }

let config_of_options (opts : Options.t) =
  {
    soft_l0 = opts.lsm.Clsm_lsm.Lsm_config.l0_slowdown_trigger;
    hard_l0 = opts.lsm.Clsm_lsm.Lsm_config.l0_stall_limit;
    (* 1 ms at [hard_l0 - 1] *)
    max_delay_ns = 1_000_000;
  }

type observation = {
  stopped : bool;
  mem_full : bool;
  imm_busy : bool;
  l0_files : int;
}

type t = { config : config; stats : Stats.t; changed : Wakeup.t }

let create ~config ~stats ~changed = { config; stats; changed }

(* Quadratic ramp: gentle just past the soft threshold, steep near the
   hard stop, where every additional L0 file matters most. *)
let delay_ns config ~l0_files =
  if l0_files < config.soft_l0 || config.max_delay_ns <= 0 then 0
  else begin
    let span = max 1 (config.hard_l0 - config.soft_l0) in
    let depth = min (l0_files - config.soft_l0 + 1) span in
    config.max_delay_ns * depth * depth / (span * span)
  end

let hard_blocked o config =
  (o.mem_full && o.imm_busy) || o.l0_files >= config.hard_l0

let admit t ~observe ~wake =
  let clear o = o.stopped || not (hard_blocked o t.config) in
  let o = observe () in
  let o =
    if clear o then o
    else begin
      (* Hard stall: park until the maintenance state changes. Each
         observation follows the generation it waits from, so no change
         is lost. The stall is accounted once, when the writer gets
         through or finds the store stopped: writer-observed time. *)
      Stats.incr t.stats Stats.write_stalls;
      wake ();
      let t0 = Time_ns.now_ns () in
      let rec park seen =
        let o = observe () in
        if clear o then o else park (Wakeup.wait t.changed ~seen)
      in
      let o = park (Wakeup.current t.changed) in
      Stats.add t.stats Stats.stall_ns (Time_ns.now_ns () - t0);
      o
    end
  in
  let d = if o.stopped then 0 else delay_ns t.config ~l0_files:o.l0_files in
  if d > 0 then begin
    Stats.incr t.stats Stats.write_slowdowns;
    Stats.add t.stats Stats.slowdown_delay_ns d;
    (* The delay buys compaction time only if compaction is running. *)
    wake ();
    Unix.sleepf (float_of_int d /. 1e9)
  end
