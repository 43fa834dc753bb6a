(* Spans, GC pauses and a counter timeline for the traced run.

   - An op span per client call into [Db] (get, scan, put), with its self
     time: the span minus the [Env] calls made inside it.
   - An IO span per [Env] call (see {!Io_env}). Its parent is the op in
     flight on the same domain, found through [Domain.DLS]; an IO call
     with no op in flight (flush, compaction, a maintenance domain) is
     background IO.
   - [Runtime_events] GC phases, polled by client 0.
   - A timeline of store counters, sampled by client 0.

   Each domain records into its own preallocated buffers, so tracing takes
   no lock on the op path. When a domain's buffer fills, every other
   recorded op (with its IO spans) is dropped and from then on only every
   [k]-th op is traced, [k] doubling each time; [k] is reported. Totals
   that feed metrics (IO time, fsync latencies) are kept exactly, whether
   or not the span itself was sampled. *)

type io_op = Append | Fsync | Read

let io_op_index = function Append -> 0 | Fsync -> 1 | Read -> 2
let io_op_names = [| "append"; "fsync"; "read" |]
let op_names = [| "get"; "scan"; "put" |]
let kind_get = 0
let kind_scan = 1
let kind_put = 2

(* Op span: seq, kind, start, duration, self. *)
let op_fields = 5

(* IO span: parent (op seq if > 0, minus the background seq if < 0),
   file kind, io op, start, duration, bytes. *)
let io_fields = 6

(* The file kind {!Io_env} gives WAL files. *)
let wal_file = 0

type dom = {
  domain : int;
  mutable client : int;  (** -1 for a domain that is not a client *)
  ops : int array;
  mutable n_ops : int;
  io : int array;
  mutable n_io : int;
  mutable k : int;
  mutable seq : int;
  mutable bg_seq : int;
  mutable cur_kind : int;  (** kind of the op in flight, -1 if none *)
  mutable traced : bool;
  mutable child_ns : int;
  mutable read_ns : int;
  mutable fg_read_ns_get : int;
  mutable fg_fsync_ns_put : int;
  wal_fsync_ns : Samples.t;
}

let active = Atomic.make false
let capacity = ref (1 lsl 16)
let registry = ref []
let registry_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          domain = (Domain.self () :> int);
          client = -1;
          ops = Array.make (!capacity * op_fields) 0;
          n_ops = 0;
          io = Array.make (!capacity * io_fields) 0;
          n_io = 0;
          k = 1;
          seq = 0;
          bg_seq = 0;
          cur_kind = -1;
          traced = false;
          child_ns = 0;
          read_ns = 0;
          fg_read_ns_get = 0;
          fg_fsync_ns_put = 0;
          wal_fsync_ns = Samples.create ();
        }
      in
      Mutex.protect registry_mu (fun () -> registry := d :: !registry);
      d)

let domains () = Mutex.protect registry_mu (fun () -> !registry)

(* Keep only spans whose sequence number is a multiple of [2k]. *)
let decimate d =
  let k2 = 2 * d.k in
  let compact buf n fields key_of =
    let kept = ref 0 in
    for i = 0 to n - 1 do
      if key_of (buf.((i * fields))) mod k2 = 0 then begin
        Array.blit buf (i * fields) buf (!kept * fields) fields;
        incr kept
      end
    done;
    !kept
  in
  d.n_ops <- compact d.ops d.n_ops op_fields Fun.id;
  d.n_io <- compact d.io d.n_io io_fields abs;
  d.k <- k2

let op_begin d kind =
  d.seq <- d.seq + 1;
  d.cur_kind <- kind;
  d.child_ns <- 0;
  d.traced <- d.seq mod d.k = 0

let op_end d ~start ~stop =
  if d.traced then begin
    while d.n_ops * op_fields >= Array.length d.ops do
      decimate d
    done;
    if d.seq mod d.k = 0 then begin
      let b = d.n_ops * op_fields in
      d.ops.(b) <- d.seq;
      d.ops.(b + 1) <- d.cur_kind;
      d.ops.(b + 2) <- start;
      d.ops.(b + 3) <- stop - start;
      d.ops.(b + 4) <- stop - start - d.child_ns;
      d.n_ops <- d.n_ops + 1
    end
  end;
  d.cur_kind <- -1

(* Called around every [Env] call: [io_start] returns 0 when tracing is
   off, which [io_end] takes as "not timed". *)
let io_start () = if Atomic.get active then Samples.now_ns () else 0

let io_end ~file_kind ~op ~bytes start =
  if start <> 0 then begin
    let stop = Samples.now_ns () in
    let dur = stop - start in
    let d = Domain.DLS.get key in
    let in_op = d.cur_kind >= 0 in
    if in_op then d.child_ns <- d.child_ns + dur;
    (match op with
    | Read ->
        d.read_ns <- d.read_ns + dur;
        if d.cur_kind = kind_get then d.fg_read_ns_get <- d.fg_read_ns_get + dur
    | Fsync when file_kind = wal_file ->
        Samples.add d.wal_fsync_ns dur;
        if d.cur_kind = kind_put then d.fg_fsync_ns_put <- d.fg_fsync_ns_put + dur
    | Fsync | Append -> ());
    let parent =
      if in_op then if d.traced then d.seq else 0
      else begin
        d.bg_seq <- d.bg_seq + 1;
        -d.bg_seq
      end
    in
    if parent <> 0 then begin
      while d.n_io * io_fields >= Array.length d.io do
        decimate d
      done;
      if abs parent mod d.k = 0 then begin
        let b = d.n_io * io_fields in
        d.io.(b) <- parent;
        d.io.(b + 1) <- file_kind;
        d.io.(b + 2) <- io_op_index op;
        d.io.(b + 3) <- start;
        d.io.(b + 4) <- dur;
        d.io.(b + 5) <- bytes;
        d.n_io <- d.n_io + 1
      end
    end
  end

(* Self times (ns) of the recorded op spans of [kind], across domains. *)
let self_ns kind =
  let s = Samples.create () in
  List.iter
    (fun d ->
      for i = 0 to d.n_ops - 1 do
        if d.ops.((i * op_fields) + 1) = kind then
          Samples.add s d.ops.((i * op_fields) + 4)
      done)
    (domains ());
  Samples.sorted [ s ]

let sampling_k () = List.fold_left (fun k d -> max k d.k) 1 (domains ())
let sum f = List.fold_left (fun a d -> a + f d) 0 (domains ())
let wal_fsync_ns () = Samples.sorted (List.map (fun d -> d.wal_fsync_ns) (domains ()))

(* ---------- GC pauses from Runtime_events ---------- *)

(* (ring, phase, start, duration); phase 0 = minor GC, 1 = major slice.
   A ring is a runtime domain slot, which is not [Domain.self ()]: each
   client announces itself with a user event so its ring is known. *)
let gc_events = ref []
let gc_open = Hashtbl.create 16
let client_rings = Hashtbl.create 4
let cursor = ref None

type Runtime_events.User.tag += Client

let client_event = Runtime_events.User.register "clsm_bench.client" Client Runtime_events.Type.int

let gc_phase = function
  | Runtime_events.EV_MINOR -> Some 0
  | Runtime_events.EV_MAJOR_SLICE -> Some 1
  | _ -> None

let callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring t phase ->
      match gc_phase phase with
      | Some p -> Hashtbl.replace gc_open (ring, p) (ts t)
      | None -> ())
    ~runtime_end:(fun ring t phase ->
      match gc_phase phase with
      | Some p -> (
          match Hashtbl.find_opt gc_open (ring, p) with
          | Some start ->
              Hashtbl.remove gc_open (ring, p);
              gc_events := (ring, p, start, ts t - start) :: !gc_events
          | None -> ())
      | None -> ())
    ()
  |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.int (fun ring _ ev c ->
         match Runtime_events.User.tag ev with
         | Client -> Hashtbl.replace client_rings ring c
         | _ -> ())

(* Only the domain that called {!start} may poll. *)
let gc_poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
  | None -> ()

(* ---------- counter timeline ---------- *)

let timeline_fields =
  [| "t_ns"; "l0_files"; "memtable_bytes"; "flushes"; "compactions"; "stalls";
     "slowdowns"; "cache_hits"; "cache_misses" |]

let timeline = ref []
let sample_timeline row = timeline := row :: !timeline

(* ---------- lifecycle ---------- *)

let start () =
  Runtime_events.start ();
  let c = Runtime_events.create_cursor None in
  cursor := Some c;
  (* Drop whatever the ring holds from before the traced phase. *)
  ignore (Runtime_events.read_poll c callbacks None : int);
  gc_events := [];
  Hashtbl.reset gc_open;
  Hashtbl.reset client_rings;
  Atomic.set active true

let stop () =
  gc_poll ();
  Atomic.set active false

(* Called by each client on its own domain once {!start} has run. *)
let client i =
  let d = Domain.DLS.get key in
  d.client <- i;
  Runtime_events.User.write client_event i;
  d

(* GC events that stopped a client domain. *)
let client_gc_events () =
  List.filter (fun (ring, _, _, _) -> Hashtbl.mem client_rings ring) !gc_events

(* ---------- dump ---------- *)

let write_json path ~workload ~file_kinds =
  let oc = open_out path in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let names a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%S") a)) in
  Printf.fprintf oc "{\"workload\":%S,\"sampling_k\":%d,\n" workload (sampling_k ());
  Printf.fprintf oc "\"op_kinds\":[%s],\"io_ops\":[%s],\"file_kinds\":[%s],\n"
    (names op_names) (names io_op_names) (names file_kinds);
  Printf.fprintf oc "\"domains\":[";
  List.iteri
    (fun i d ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"domain\":%d,\"client\":%d,\"op_fields\":[\"seq\",\"kind\",\"start_ns\",\"dur_ns\",\"self_ns\"],\"ops\":[%s],\n\
         \"io_fields\":[\"parent\",\"file_kind\",\"io_op\",\"start_ns\",\"dur_ns\",\"bytes\"],\"io\":[%s]}"
        d.domain d.client
        (ints (Array.sub d.ops 0 (d.n_ops * op_fields)))
        (ints (Array.sub d.io 0 (d.n_io * io_fields))))
    (List.rev (domains ()));
  Printf.fprintf oc "],\n\"client_rings\":[%s],\n"
    (String.concat ","
       (Hashtbl.fold (fun ring c acc -> Printf.sprintf "[%d,%d]" ring c :: acc) client_rings []));
  Printf.fprintf oc "\"gc_fields\":[\"ring\",\"phase\",\"start_ns\",\"dur_ns\"],\"gc\":[%s],\n"
    (String.concat ","
       (List.rev_map
          (fun (r, p, s, d) -> Printf.sprintf "%d,%d,%d,%d" r p s d)
          !gc_events));
  Printf.fprintf oc "\"timeline_fields\":[%s],\"timeline\":[%s]}\n" (names timeline_fields)
    (String.concat ","
       (List.rev_map (fun row -> "[" ^ ints row ^ "]") !timeline));
  close_out oc
