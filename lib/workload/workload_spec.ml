type op = Read | Write | Scan | Rmw

type t = {
  name : string;
  read_ratio : float;
  write_ratio : float;
  scan_ratio : float;
  rmw_ratio : float;
  keys : Key_dist.t;
  key_len : int;
  value_len : int;
  scan_min : int;
  scan_max : int;
}

let make ?(read = 1.0) ?(write = 0.0) ?(scan = 0.0) ?(rmw = 0.0) ?(key_len = 8)
    ?(value_len = 256) ?(scan_min = 10) ?(scan_max = 20) ~name keys =
  let total = read +. write +. scan +. rmw in
  if total <= 0.0 then invalid_arg "Workload_spec.make";
  {
    name;
    read_ratio = read /. total;
    write_ratio = write /. total;
    scan_ratio = scan /. total;
    rmw_ratio = rmw /. total;
    keys;
    key_len;
    value_len;
    scan_min;
    scan_max;
  }

let next_op t rng =
  let r = Rng.float rng in
  if r < t.read_ratio then Read
  else if r < t.read_ratio +. t.write_ratio then Write
  else if r < t.read_ratio +. t.write_ratio +. t.scan_ratio then Scan
  else Rmw

let next_key t rng = Key_dist.next_key ~key_len:t.key_len t.keys rng

(* Values are pseudo-random bytes of the configured size; content does
   not affect the systems under test beyond length. *)
let value_for t rng =
  let b = Bytes.create t.value_len in
  let r = ref (Rng.next rng) in
  for i = 0 to t.value_len - 1 do
    if i land 7 = 0 then r := Rng.next rng;
    Bytes.unsafe_set b i (Char.unsafe_chr (!r lsr (8 * (i land 7)) land 0x7f lor 0x20))
  done;
  Bytes.unsafe_to_string b

let scan_len t rng =
  if t.scan_max <= t.scan_min then t.scan_min
  else t.scan_min + Rng.int rng (t.scan_max - t.scan_min + 1)

(* §5.1: 8-byte keys, 256-byte values. *)
let write_only ~space =
  make ~name:"write-only" ~read:0.0 ~write:1.0 (Key_dist.uniform space)

let read_only_skewed ~space =
  make ~name:"read-only-skewed" (Key_dist.skewed_blocks space)

let mixed_read_write ~space =
  make ~name:"mixed-50-50" ~read:0.5 ~write:0.5 (Key_dist.skewed_blocks space)

let mixed_scan_write ~space =
  (* Scans touch 10-20 keys, so one scan balances ~15 writes; the paper
     keeps the number of keys written and scanned balanced. *)
  make ~name:"scan-write" ~read:0.0 ~write:(15.0 /. 16.0) ~scan:(1.0 /. 16.0)
    (Key_dist.skewed_blocks space)

let rmw_only ~space =
  make ~name:"rmw-only" ~read:0.0 ~rmw:1.0 (Key_dist.skewed_blocks space)

(* §5.2: 40-byte keys, 1KB values, heavy-tail popularity. *)
let production ~read_ratio ~space =
  make
    ~name:(Printf.sprintf "production-%d" (int_of_float (read_ratio *. 100.)))
    ~read:read_ratio ~write:(1.0 -. read_ratio) ~key_len:40 ~value_len:1024
    (Key_dist.heavy_tail space)

(* §5.3: 10-byte keys, 400-byte values, uniform updates. *)
let disk_heavy ~space =
  make ~name:"disk-heavy" ~read:0.0 ~write:1.0 ~key_len:10 ~value_len:400
    (Key_dist.uniform space)
