open Clsm_util

type op =
  | Get of string
  | Put of string * int
  | Delete of string
  | Scan of string * int
  | Rmw of string * int

(* Keys are printable in our generators; escape defensively anyway. *)
let escape = String.map (fun c -> if c = ' ' || c = '\n' then '_' else c)

let op_to_line = function
  | Get k -> Printf.sprintf "G %s" (escape k)
  | Put (k, n) -> Printf.sprintf "P %s %d" (escape k) n
  | Delete k -> Printf.sprintf "D %s" (escape k)
  | Scan (k, n) -> Printf.sprintf "S %s %d" (escape k) n
  | Rmw (k, n) -> Printf.sprintf "M %s %d" (escape k) n

let op_of_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line with
    | [ "G"; k ] -> Some (Get k)
    | [ "P"; k; n ] -> Some (Put (k, int_of_string n))
    | [ "D"; k ] -> Some (Delete k)
    | [ "S"; k; n ] -> Some (Scan (k, int_of_string n))
    | [ "M"; k; n ] -> Some (Rmw (k, int_of_string n))
    | _ -> failwith ("Trace: malformed line: " ^ line)

let synthesize ?(seed = 11) ~spec ~count path =
  let rng = Rng.create seed in
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "# synthesized trace: %s, %d ops\n"
       spec.Workload_spec.name count);
  for _ = 1 to count do
    let key = Workload_spec.next_key spec rng in
    let op =
      match Workload_spec.next_op spec rng with
      | Workload_spec.Read -> Get key
      | Workload_spec.Write ->
          (* sprinkle occasional deletes into write traffic, like real
             serving logs *)
          if Rng.bool rng 0.02 then Delete key
          else Put (key, spec.Workload_spec.value_len)
      | Workload_spec.Scan -> Scan (key, Workload_spec.scan_len spec rng)
      | Workload_spec.Rmw -> Rmw (key, spec.Workload_spec.value_len)
    in
    output_string oc (op_to_line op);
    output_char oc '\n'
  done;
  close_out oc

let load path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match op_of_line line with
        | Some op -> go (op :: acc)
        | None -> go acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

type stats = {
  total : int;
  reads : int;
  writes : int;
  deletes : int;
  scans : int;
  rmws : int;
  distinct_keys : int;
  top_decile_share : float;
}

let key_of = function
  | Get k | Put (k, _) | Delete k | Scan (k, _) | Rmw (k, _) -> k

let stats_of ops =
  let counts = Hashtbl.create 1024 in
  let reads = ref 0
  and writes = ref 0
  and deletes = ref 0
  and scans = ref 0
  and rmws = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Get _ -> incr reads
      | Put _ -> incr writes
      | Delete _ -> incr deletes
      | Scan _ -> incr scans
      | Rmw _ -> incr rmws);
      let k = key_of op in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    ops;
  let total = List.length ops in
  let freqs =
    Hashtbl.fold (fun _ c acc -> c :: acc) counts []
    |> List.sort (fun a b -> compare b a)
  in
  let distinct = List.length freqs in
  let top_n = max 1 (distinct / 10) in
  let rec take n = function
    | c :: rest when n > 0 -> c + take (n - 1) rest
    | _ -> 0
  in
  {
    total;
    reads = !reads;
    writes = !writes;
    deletes = !deletes;
    scans = !scans;
    rmws = !rmws;
    distinct_keys = distinct;
    top_decile_share =
      (if total = 0 then 0.0
       else float_of_int (take top_n freqs) /. float_of_int total);
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d ops: %d reads, %d writes, %d deletes, %d scans, %d rmws; %d distinct \
     keys; top 10%% of keys draw %.0f%% of references"
    s.total s.reads s.writes s.deletes s.scans s.rmws s.distinct_keys
    (100.0 *. s.top_decile_share)

let replay ?(value_seed = 1234) (store : Store_ops.t) ops =
  let hist = Histogram.create () in
  let keys_touched = ref 0 in
  let value_for key len =
    let rng = Rng.create (value_seed lxor Hashing.hash key) in
    String.init len (fun _ -> Char.chr (0x20 + Rng.int rng 0x5f))
  in
  let t0 = Time_ns.now_ns () in
  List.iter
    (fun op ->
      let start = Time_ns.now_ns () in
      (match op with
      | Get k ->
          ignore (store.Store_ops.get k);
          incr keys_touched
      | Put (k, n) ->
          store.Store_ops.put ~key:k ~value:(value_for k n);
          incr keys_touched
      | Delete k ->
          store.Store_ops.delete ~key:k;
          incr keys_touched
      | Scan (k, n) ->
          let result = store.Store_ops.scan ~start:k ~limit:n in
          keys_touched := !keys_touched + List.length result
      | Rmw (k, n) ->
          ignore (store.Store_ops.put_if_absent ~key:k ~value:(value_for k n));
          incr keys_touched);
      Histogram.record hist (Time_ns.now_ns () - start))
    ops;
  let elapsed = float_of_int (Time_ns.now_ns () - t0) *. 1e-9 in
  Driver.result_of ~ops:(List.length ops) ~keys_touched:!keys_touched ~elapsed
    hist
