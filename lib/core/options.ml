type group_commit = { max_batch : int; max_delay_us : int }
type wal_sync = [ `Per_write | `Group of group_commit | `Async ]

type t = {
  dir : string;
  memtable_bytes : int;
  wal_sync : wal_sync;
  wal_enabled : bool;
  cache_bytes : int;
  readahead_blocks : int;
  snapshots : Clock.snapshot_mode;
  maintenance_workers : int;
  lsm : Clsm_lsm.Lsm_config.t;
  env : Clsm_env.Env.t;
  strict_wal : bool;
  shards : int;
  shard_boundaries : string list option;
  retry : Clsm_env.Retry_policy.t;
  scrub_interval : float;
  auto_repair : bool;
}

let default ~dir =
  {
    dir;
    memtable_bytes = 128 * 1024 * 1024;
    wal_sync = `Async;
    wal_enabled = true;
    cache_bytes = 64 * 1024 * 1024;
    readahead_blocks = 8;
    snapshots = Clock.Serializable;
    maintenance_workers = 2;
    lsm = Clsm_lsm.Lsm_config.default;
    env = Clsm_env.Env.unix;
    strict_wal = false;
    shards = 1;
    shard_boundaries = None;
    retry = Clsm_env.Retry_policy.default;
    scrub_interval = 30.0;
    auto_repair = true;
  }

let default_group_commit = { max_batch = 64; max_delay_us = 50 }

let wal_mode t =
  match t.wal_sync with
  | `Async -> Clsm_wal.Wal_writer.Async
  | `Per_write -> Clsm_wal.Wal_writer.Group { max_batch = 1; max_delay_us = 0 }
  | `Group { max_batch; max_delay_us } ->
      Clsm_wal.Wal_writer.Group { max_batch; max_delay_us }
