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

type t = { config : config; stats : Stats.t }

let create ~config ~stats = { config; stats }

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
  let b = Backoff.create ~max_spins:4096 () in
  (* [since] is the monotonic instant (ns) this writer first found itself
     hard-blocked (None while unblocked); the elapsed stall is accounted
     once, when the writer gets through (or gives up on a stopped
     store), so stall seconds in stats are real writer-observed time. *)
  let record_stall = function
    | None -> ()
    | Some t0 -> Stats.add t.stats Stats.stall_ns (Time_ns.now_ns () - t0)
  in
  let rec wait_hard since =
    let o = observe () in
    if o.stopped then record_stall since
    else if hard_blocked o t.config then begin
      let since =
        match since with
        | None ->
            Stats.incr t.stats Stats.write_stalls;
            wake ();
            Some (Time_ns.now_ns ())
        | Some _ -> since
      in
      Backoff.once b;
      wait_hard since
    end
    else begin
      record_stall since;
      let d = delay_ns t.config ~l0_files:o.l0_files in
      if d > 0 then begin
        Stats.incr t.stats Stats.write_slowdowns;
        Stats.add t.stats Stats.slowdown_delay_ns d;
        (* The delay buys compaction time only if compaction is running. *)
        wake ();
        Unix.sleepf (float_of_int d /. 1e9)
      end
    end
  in
  wait_hard None
