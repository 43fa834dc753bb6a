(* clsm-cli: command-line shell over a cLSM store directory.

   Examples:
     clsm_cli put  --dir /tmp/db mykey myvalue
     clsm_cli get  --dir /tmp/db mykey
     clsm_cli scan --dir /tmp/db --start a --stop z --limit 20
     clsm_cli incr --dir /tmp/db counter
     clsm_cli put  --dir /tmp/db --shards 4 mykey myvalue
     clsm_cli bench --dir /tmp/db --threads 2 --ops 20000 --workload mixed
     clsm_cli stats --dir /tmp/db *)

open Cmdliner
open Clsm_core

let dir_arg =
  let doc = "Store directory (created if missing)." in
  Arg.(value & opt string "./clsm-data" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)

let shards_arg =
  let doc =
    "Open as a range-sharded store with $(docv) shards (one cLSM instance \
     per contiguous key range, all sharing one logical clock). A directory \
     that already holds a sharded store is detected automatically and its \
     persisted layout wins over this flag."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let boundaries_arg =
  let doc =
    "Comma-separated ascending shard boundary keys (length shards - 1); \
     default is a byte-uniform split of the keyspace."
  in
  Arg.(value & opt (some string) None & info [ "boundaries" ] ~docv:"K1,K2" ~doc)

(* "async" | "per-write" | "group" | "group:BATCH:DELAY_US" *)
let wal_sync_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "async" -> Ok `Async
    | "per-write" | "per_write" | "sync" -> Ok `Per_write
    | "group" -> Ok (`Group Options.default_group_commit)
    | g -> (
        match String.split_on_char ':' g with
        | [ "group"; batch; delay ] -> (
            match (int_of_string_opt batch, int_of_string_opt delay) with
            | Some max_batch, Some max_delay_us
              when max_batch > 0 && max_delay_us >= 0 ->
                Ok (`Group { Options.max_batch; max_delay_us })
            | _ ->
                Error
                  (`Msg
                     "group:BATCH:DELAY_US needs a positive batch and a \
                      non-negative delay"))
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown WAL sync policy %S (expected async, per-write, \
                     group or group:BATCH:DELAY_US)"
                    s)))
  in
  let print ppf (w : Options.wal_sync) =
    match w with
    | `Async -> Format.pp_print_string ppf "async"
    | `Per_write -> Format.pp_print_string ppf "per-write"
    | `Group { Options.max_batch; max_delay_us } ->
        Format.fprintf ppf "group:%d:%d" max_batch max_delay_us
  in
  Arg.conv (parse, print)

let wal_sync_arg =
  let doc =
    "WAL durability policy: $(b,async) (queue only, fsync on flush), \
     $(b,per-write) (one fsync per operation), $(b,group) (leader-batched \
     group commit; optionally $(b,group:BATCH:DELAY_US) to set the batch \
     bound and accumulation window)."
  in
  Arg.(
    value
    & opt wal_sync_conv `Async
    & info [ "wal-sync" ] ~docv:"POLICY" ~doc)

let cache_bytes_arg =
  let doc =
    "Block cache budget in bytes (default 64 MiB). Shared by all shards \
     of a sharded store; open-table index/filter pins are charged against \
     it."
  in
  Arg.(value & opt (some int) None & info [ "cache-bytes" ] ~docv:"BYTES" ~doc)

(* The store-selection flags travel together. *)
let store_args =
  Term.(
    const (fun dir shards boundaries wal_sync cache_bytes ->
        (dir, shards, boundaries, wal_sync, cache_bytes))
    $ dir_arg $ shards_arg $ boundaries_arg $ wal_sync_arg $ cache_bytes_arg)

(* Commands are written once against [Store_sig.S] and run against either
   [Db] or the [Sharded_db] router, picked at open time. *)
type 'r app = {
  apply : 'a. (module Store_sig.S with type t = 'a) -> 'a -> 'r;
}

(* [~self_heal:false] opens with no background scrub and no automatic
   repair, for a command that runs both itself. *)
let with_store ?(self_heal = true) (dir, shards, boundaries, wal_sync, cache_bytes)
    { apply } =
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.shards;
      shard_boundaries = Option.map (String.split_on_char ',') boundaries;
      wal_sync;
      cache_bytes = Option.value cache_bytes ~default:base.Options.cache_bytes;
      scrub_interval = (if self_heal then base.Options.scrub_interval else 0.0);
      auto_repair = self_heal && base.Options.auto_repair;
    }
  in
  let sharded =
    shards > 1 || Sys.file_exists (Filename.concat dir "SHARDING")
  in
  if sharded then begin
    let db = Sharded_db.open_store opts in
    Fun.protect
      ~finally:(fun () -> Sharded_db.close db)
      (fun () -> apply (module Sharded_db) db)
  end
  else begin
    let db = Db.open_store opts in
    Fun.protect
      ~finally:(fun () -> Db.close db)
      (fun () -> apply (module Db) db)
  end

(* ---------- point ops ---------- *)

let put_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let value = Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE") in
  let run st key value =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            S.put db ~key ~value);
      }
  in
  Cmd.v (Cmd.info "put" ~doc:"Store a key-value pair.")
    Term.(const run $ store_args $ key $ value)

let get_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let run st key =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            match S.get db key with
            | Some v ->
                print_endline v;
                0
            | None ->
                prerr_endline "(not found)";
                1);
      }
    |> exit
  in
  Cmd.v (Cmd.info "get" ~doc:"Print a key's value.")
    Term.(const run $ store_args $ key)

let del_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let run st key =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            S.delete db ~key);
      }
  in
  Cmd.v (Cmd.info "del" ~doc:"Delete a key (writes a deletion marker).")
    Term.(const run $ store_args $ key)

let scan_cmd =
  let start =
    Arg.(value & opt (some string) None & info [ "start" ] ~docv:"KEY")
  in
  let stop = Arg.(value & opt (some string) None & info [ "stop" ] ~docv:"KEY") in
  let limit = Arg.(value & opt int 100 & info [ "limit" ] ~docv:"N") in
  let run st start stop limit =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            List.iter
              (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
              (S.range ?start ?stop ~limit db));
      }
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Consistent snapshot range scan in key order (cross-shard scans \
          merge under one snapshot timestamp).")
    Term.(const run $ store_args $ start $ stop $ limit)

let incr_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let by = Arg.(value & opt int 1 & info [ "by" ] ~docv:"N") in
  let run st key by =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            let result = ref 0 in
            ignore
              (S.rmw db ~key (fun v ->
                   let n =
                     match v with Some s -> int_of_string s | None -> 0
                   in
                   result := n + by;
                   S.Set (string_of_int (n + by))));
            Printf.printf "%d\n" !result);
      }
  in
  Cmd.v
    (Cmd.info "incr"
       ~doc:"Atomically increment an integer value (non-blocking RMW).")
    Term.(const run $ store_args $ key $ by)

(* ---------- maintenance / introspection ---------- *)

let compact_cmd =
  let run st =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            S.compact_now db);
      }
  in
  Cmd.v
    (Cmd.info "compact" ~doc:"Flush the memtable and compact all levels.")
    Term.(const run $ store_args)

let verify_cmd =
  let run st =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            match S.verify_integrity db with
            | [] ->
                print_endline
                  "ok: all table files verify; level invariants hold";
                0
            | problems ->
                List.iter (Printf.eprintf "problem: %s\n") problems;
                1);
      }
    |> exit
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check every table file and the disk-component invariants.")
    Term.(const run $ store_args)

let repair_cmd =
  let run dir =
    (* [Sharded_db.repair] rebuilds each shard-* subdirectory and falls
       back to single-store repair when the directory never was sharded. *)
    Sharded_db.repair ~dir ();
    print_endline "manifest rebuilt; damaged tables (if any) renamed *.damaged"
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Rebuild a lost/corrupt manifest from the table files present \
          (per shard on a sharded directory).")
    Term.(const run $ dir_arg)

let stats_cmd =
  let run st =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            Format.printf "%a@." Stats.pp (S.stats db);
            Format.printf "memtable bytes: %d@." (S.memtable_bytes db);
            let c = S.cache_stats db in
            Format.printf
              "block cache: hits=%d misses=%d evictions=%d weight=%d pins=%d \
               singleflight_waits=%d readaheads=%d readahead_blocks=%d@."
              c.Clsm_sstable.Cache.hits c.misses c.evictions c.weight c.pins
              c.singleflight_waits c.readaheads c.readahead_blocks;
            Format.printf "files per level:";
            List.iter (Format.printf " %d") (S.level_file_counts db);
            Format.printf "@.";
            match S.health db with
            | `Ok -> ()
            | `Partial reason -> Format.printf "PARTIAL: %s@." reason
            | `Degraded reason -> Format.printf "DEGRADED: %s@." reason);
      }
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print store statistics (per-shard roll-up on a sharded store).")
    Term.(const run $ store_args)

(* ---------- self-healing ---------- *)

let health_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Also print the full counter set as JSON.")
  in
  let run st json =
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            let code =
              match S.health db with
              | `Ok ->
                  Format.printf "ok@.";
                  0
              | `Partial reason ->
                  Format.printf "partial: %s@." reason;
                  1
              | `Degraded reason ->
                  Format.printf "degraded: %s@." reason;
                  2
            in
            if json then print_endline (Stats.to_json (S.stats db));
            code);
      }
    |> exit
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Print store health (per-shard roll-up on a sharded store): 'ok', \
          'partial' (tables with a corruption verdict awaiting \
          re-verification; gets read around a rotten block, scans over \
          it fail) or 'degraded' (write path down). Exit code 0/1/2 \
          respectively.")
    Term.(const run $ store_args $ json)

let scrub_cmd =
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "After scrubbing, run the repair pass: re-verify each table \
             the scrub found corrupt, keep it if it now reads clean, else \
             drop it from the store and rename it to <n>.sst.quarantined; \
             then attempt the online degraded-to-ok transition.")
  in
  let run st repair =
    with_store ~self_heal:false st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            let problems = S.scrub_now db in
            List.iter (Format.printf "CORRUPT %s@.") problems;
            let health =
              if repair then S.repair_now db else S.health db
            in
            (match health with
            | `Ok -> Format.printf "health: ok@."
            | `Partial reason -> Format.printf "health: partial: %s@." reason
            | `Degraded reason ->
                Format.printf "health: degraded: %s@." reason);
            print_endline (Stats.to_json (S.stats db));
            if problems = [] then 0 else 1);
      }
    |> exit
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Re-verify every sstable block and the WAL tail (every shard on a \
          sharded store); only --repair acts on what it finds. The store is \
          opened with background scrubbing and automatic repair off, so \
          this pass is the one that detects. Prints the problems found, \
          the resulting health and the counter set as JSON; exit code 1 if \
          anything was corrupt.")
    Term.(const run $ store_args $ repair)

let batch_cmd =
  let doc =
    "Apply an atomic batch read from stdin: lines are 'put <key> <value>' \
     or 'del <key>'."
  in
  let run st =
    let rec read acc =
      match input_line stdin with
      | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ "" ] -> read acc
          | [ "put"; k; v ] -> read (`Put (k, v) :: acc)
          | [ "del"; k ] -> read (`Del k :: acc)
          | _ -> failwith ("batch: malformed line: " ^ line))
      | exception End_of_file -> List.rev acc
    in
    let ops = read [] in
    with_store st
      {
        apply =
          (fun (type a) (module S : Store_sig.S with type t = a) (db : a) ->
            S.write_batch db
              (List.map
                 (function
                   | `Put (k, v) -> S.Batch_put (k, v)
                   | `Del k -> S.Batch_delete k)
                 ops));
      };
    Printf.printf "applied %d operations atomically\n" (List.length ops)
  in
  Cmd.v (Cmd.info "batch" ~doc) Term.(const run $ store_args)

(* ---------- traces ---------- *)

let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_FILE")

let trace_synth_cmd =
  let count = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N") in
  let space = Arg.(value & opt int 100_000 & info [ "space" ] ~docv:"KEYS") in
  let read_ratio =
    Arg.(value & opt float 0.9 & info [ "read-ratio" ] ~docv:"R")
  in
  let run file count space read_ratio =
    let open Clsm_workload in
    let spec = Workload_spec.production ~read_ratio ~space in
    Trace.synthesize ~spec ~count file;
    Format.printf "%a@." Trace.pp_stats (Trace.stats_of (Trace.load file))
  in
  Cmd.v
    (Cmd.info "trace-synth"
       ~doc:
         "Write a synthetic production-profile trace (heavy-tail keys, 40B \
          keys / 1KB values) to a file.")
    Term.(const run $ trace_file_arg $ count $ space $ read_ratio)

let trace_replay_cmd =
  let run dir file =
    let open Clsm_workload in
    let ops = Trace.load file in
    Format.printf "replaying: %a@." Trace.pp_stats (Trace.stats_of ops);
    let store = Store_ops.open_clsm (Options.default ~dir) in
    let r = Trace.replay store ops in
    Format.printf "%a@." Driver.pp_result r;
    store.Store_ops.close ()
  in
  Cmd.v
    (Cmd.info "trace-replay" ~doc:"Replay a trace file against the store.")
    Term.(const run $ dir_arg $ trace_file_arg)

(* ---------- workload bench ---------- *)

let bench_cmd =
  let threads = Arg.(value & opt int 2 & info [ "threads" ] ~docv:"N") in
  let ops = Arg.(value & opt int 20_000 & info [ "ops" ] ~docv:"N") in
  let workload =
    let doc =
      "One of: write, read, mixed, scan, rmw, production, ycsb-a .. ycsb-f."
    in
    Arg.(value & opt string "mixed" & info [ "workload" ] ~doc)
  in
  let space = Arg.(value & opt int 50_000 & info [ "space" ] ~docv:"KEYS") in
  let run dir threads ops workload space =
    let open Clsm_workload in
    let spec =
      match workload with
      | "write" -> Workload_spec.write_only ~space
      | "read" -> Workload_spec.read_only_skewed ~space
      | "mixed" -> Workload_spec.mixed_read_write ~space
      | "scan" -> Workload_spec.mixed_scan_write ~space
      | "rmw" -> Workload_spec.rmw_only ~space
      | "production" -> Workload_spec.production ~read_ratio:0.9 ~space
      | "ycsb-a" -> Ycsb.workload_a ~space
      | "ycsb-b" -> Ycsb.workload_b ~space
      | "ycsb-c" -> Ycsb.workload_c ~space
      | "ycsb-d" -> Ycsb.workload_d ~space
      | "ycsb-e" -> Ycsb.workload_e ~space
      | "ycsb-f" -> Ycsb.workload_f ~space
      | other -> failwith ("unknown workload: " ^ other)
    in
    let store = Store_ops.open_clsm (Options.default ~dir) in
    if spec.Workload_spec.read_ratio > 0.0 then
      Driver.preload store spec ~count:space;
    let r = Driver.run ~threads ~ops_per_thread:(ops / max 1 threads) store spec in
    Format.printf "%a@." Driver.pp_result r;
    store.Store_ops.close ()
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run a workload against the store and report.")
    Term.(const run $ dir_arg $ threads $ ops $ workload $ space)

let () =
  let info =
    Cmd.info "clsm_cli" ~version:"1.0.0"
      ~doc:"Concurrent log-structured data store (cLSM, EuroSys '15) shell"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            put_cmd;
            get_cmd;
            del_cmd;
            batch_cmd;
            scan_cmd;
            incr_cmd;
            compact_cmd;
            verify_cmd;
            repair_cmd;
            stats_cmd;
            health_cmd;
            scrub_cmd;
            trace_synth_cmd;
            trace_replay_cmd;
            bench_cmd;
          ]))
