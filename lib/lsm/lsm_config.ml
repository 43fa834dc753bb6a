type t = {
  num_levels : int;
  l0_compaction_trigger : int;
  l0_slowdown_trigger : int;
  l0_stall_limit : int;
  level1_max_bytes : int;
  level_size_multiplier : int;
  target_file_size : int;
  block_size : int;
  bits_per_key : int;
}

let default =
  {
    num_levels = 7;
    l0_compaction_trigger = 4;
    l0_slowdown_trigger = 8;
    l0_stall_limit = 12;
    level1_max_bytes = 10 * 1024 * 1024;
    level_size_multiplier = 10;
    target_file_size = 2 * 1024 * 1024;
    block_size = 4096;
    bits_per_key = 10;
  }

let max_bytes_for_level cfg level =
  if level < 1 then invalid_arg "max_bytes_for_level";
  let rec go l acc =
    if l = level then acc else go (l + 1) (acc * cfg.level_size_multiplier)
  in
  go 1 cfg.level1_max_bytes
