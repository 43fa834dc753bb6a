(* Scratch directories for every test executable (the unit suites, the
   linearizability campaign and the torture harness). Each is named
   [clsm_test_<prefix>_<pid>...] under the temp dir and removed,
   recursively, when the test process exits, so a run leaves nothing
   behind. *)

let made = ref []
let made_mutex = Mutex.create ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let () = at_exit (fun () -> List.iter rm_rf !made)

let track d =
  Mutex.protect made_mutex (fun () -> made := d :: !made);
  d

let path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* [fresh prefix ()] names a new, absent directory on each call,
   [clsm_test_<prefix>_<pid>_<n>], for a store to create. A case may
   close and reopen it as often as it likes; it goes at exit. *)
let fresh prefix =
  let counter = Atomic.make 0 in
  fun () ->
    let n = 1 + Atomic.fetch_and_add counter 1 in
    let d = path (Printf.sprintf "clsm_test_%s_%d_%d" prefix (Unix.getpid ()) n) in
    rm_rf d;
    track d

(* [dir name] makes one directory now, [clsm_test_<name>_<pid>], for a
   suite that keeps its files side by side. *)
let dir name =
  let d = path (Printf.sprintf "clsm_test_%s_%d" name (Unix.getpid ())) in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  track d
