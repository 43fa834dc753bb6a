(** Tunables of the disk component and merge policy. Defaults follow the
    paper's evaluation setup (§5.3): 6 disk levels, 64 MB level-1 target
    file size scaled down to container scale, 64 KB blocks in the
    disk-bound benchmark, 4 KB otherwise. *)

type t = {
  num_levels : int;  (** disk levels including L0 (default 7) *)
  l0_compaction_trigger : int;  (** L0 file count that starts a merge (4) *)
  l0_slowdown_trigger : int;
      (** L0 file count where graduated write slowdown begins (8); see
          {!Clsm_core.Backpressure}. Delays ramp from here up to
          [l0_stall_limit], where writers stop. *)
  l0_stall_limit : int;  (** L0 file count that stalls writers (12) *)
  level1_max_bytes : int;  (** byte budget of L1; deeper levels ×[multiplier] *)
  level_size_multiplier : int;
  target_file_size : int;  (** compaction output file cut size *)
  block_size : int;
  bits_per_key : int;  (** Bloom bits per user key; 0 disables filters *)
}

val default : t

val max_bytes_for_level : t -> int -> int
(** [max_bytes_for_level cfg level] for [level >= 1]. *)
