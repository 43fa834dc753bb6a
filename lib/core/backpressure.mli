(** Graduated write backpressure (after Luo & Carey, "On Performance
    Stability in LSM-based Storage Systems").

    The seed store had a binary stall: writers ran at full speed until
    L0 reached [l0_stall_limit], then busy-waited. That produces a
    sawtooth — bursts of maximum ingest alternating with multi-second
    write outages. This controller adds a soft threshold
    ([l0_slowdown_trigger]): between soft and hard limits each put is
    delayed by an amount that grows quadratically with L0 depth, up to
    [max_delay_ns], shaving ingest smoothly so compaction can keep up
    and the hard stop is rarely hit. The hard conditions (L0 at the
    stall limit, or the memtable overfull while its predecessor is still
    merging, paper §5.3) still stop the writer until maintenance catches
    up: it parks on the store's state-change cell and re-observes on
    each signal, so a stalled writer burns no CPU the compaction it
    waits for needs. *)

type config = {
  soft_l0 : int;  (** L0 file count where delays begin *)
  hard_l0 : int;  (** L0 file count where writers stop *)
  max_delay_ns : int;  (** delay at [hard_l0 - 1] *)
}

val config_of_options : Options.t -> config

type observation = {
  stopped : bool;
      (** store not [Open] (degraded or closing): admit at once, and let
          the write's own check raise *)
  mem_full : bool;  (** active memtable over twice its budget *)
  imm_busy : bool;  (** previous memtable still merging *)
  l0_files : int;
}

type t

val create :
  config:config -> stats:Stats.t -> changed:Clsm_primitives.Wakeup.t -> t
(** [changed] is signalled on every change that can lift a stall. *)

val delay_ns : config -> l0_files:int -> int
(** Pure delay curve: [0] below [soft_l0], then a quadratic ramp
    reaching [max_delay_ns] at [hard_l0 - 1]. Exposed for direct
    property testing. *)

val admit : t -> observe:(unit -> observation) -> wake:(unit -> unit) -> unit
(** Gate one write. While a hard condition holds, parks on [changed]
    and re-observes via [observe] after each signal (calling [wake] once
    per stall episode so the scheduler runs), then injects the graduated
    delay, recording stall and slowdown statistics. An unblocked writer
    takes no mutex. *)
