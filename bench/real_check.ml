(* Real-execution cross-check: drives the actual OCaml stores (cLSM vs the
   single-writer and lock-striping baselines, which run cLSM's own engine
   under LevelDB's global mutex) with the paper's workloads through real
   domains. Scaling beyond the host's cores is not meaningful — the
   simulator regenerates the figures — but relative costs and correctness
   under concurrency are. *)

open Clsm_workload

let rec rm path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "clsm_real_%s_%d" name (Unix.getpid ()))
  in
  rm d;
  d

let small_opts dir =
  {
    (Clsm_core.Options.default ~dir) with
    Clsm_core.Options.memtable_bytes = 8 * 1024 * 1024;
    cache_bytes = 32 * 1024 * 1024;
  }

let stores =
  [
    ("clsm", fun dir -> Store_ops.open_clsm (small_opts dir));
    ("single-writer", fun dir -> Store_ops.open_single_writer (small_opts dir));
    ("striped-rmw", fun dir -> Store_ops.open_striped (small_opts dir));
  ]

let scenario ~name ~spec ~preload_count ~ops_per_thread ~threads_list =
  Printf.printf "\n-- real:%s --\n%!" name;
  List.iter
    (fun (sname, open_store) ->
      let dir = tmp_dir (name ^ "_" ^ sname) in
      let store = open_store dir in
      if preload_count > 0 then
        Driver.preload store spec ~count:preload_count;
      List.iter
        (fun threads ->
          let r = Driver.run ~threads ~ops_per_thread store spec in
          Format.printf "%-14s threads=%-2d %a@." sname threads
            Driver.pp_result r)
        threads_list;
      (match store.Store_ops.stats_json () with
      | Some json -> Printf.printf "%-14s stats %s\n%!" sname json
      | None -> ());
      store.Store_ops.close ();
      rm dir)
    stores

let run ~quick =
  let space = 50_000 in
  let n = if quick then 8_000 else 40_000 in
  let threads_list = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  scenario ~name:"write-only"
    ~spec:(Workload_spec.write_only ~space)
    ~preload_count:0 ~ops_per_thread:n ~threads_list;
  scenario ~name:"read-skewed"
    ~spec:(Workload_spec.read_only_skewed ~space)
    ~preload_count:space ~ops_per_thread:n ~threads_list;
  scenario ~name:"mixed-50-50"
    ~spec:(Workload_spec.mixed_read_write ~space)
    ~preload_count:space ~ops_per_thread:n ~threads_list;
  scenario ~name:"rmw"
    ~spec:(Workload_spec.rmw_only ~space)
    ~preload_count:0 ~ops_per_thread:(n / 2) ~threads_list
