type t = { slots : int Atomic.t array; hwm : int Atomic.t }
type handle = int

(* Home indices are leased process-wide, one per domain, from a table the
   size of the runtime's domain limit (OCaml 5.1's [Max_domains]): a
   domain takes the lowest free entry on its first [add] and returns it
   at [Domain.at_exit], so a fresh domain reuses the index of one that
   has exited and the live domains' homes stay packed at the bottom. *)
let homes = 128
let leased = Array.init homes (fun _ -> Atomic.make false)

let lease () =
  let rec go i =
    if i = homes then None
    else if
      (not (Atomic.get leased.(i)))
      && Atomic.compare_and_set leased.(i) false true
    then Some i
    else go (i + 1)
  in
  go 0

(* -1 until this domain's first [add]. *)
let home_key = Domain.DLS.new_key (fun () -> -1)

let home () =
  let h = Domain.DLS.get home_key in
  if h >= 0 then h
  else begin
    let h =
      match lease () with
      | Some i ->
          Domain.at_exit (fun () -> Atomic.set leased.(i) false);
          i
      | None ->
          (* More live domains than the runtime allows today: share an
             unleased home; [add] probes past a taken slot anyway. *)
          (Domain.self () :> int) mod homes
    in
    Domain.DLS.set home_key h;
    h
  end

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Active_set.create";
  { slots = Array.init capacity (fun _ -> Atomic.make 0); hwm = Atomic.make 0 }

let rec raise_hwm t v =
  let h = Atomic.get t.hwm in
  if h < v && not (Atomic.compare_and_set t.hwm h v) then raise_hwm t v

(* Claim the first free slot at or after [i], probing at most [left]
   slots; -1 if all of them are taken. The high-water mark covers a slot
   before the CAS that publishes it, so a published slot always lies
   below the mark. A reader that loads the mark too early to cover the
   slot has ordered that load — and whatever it wrote before it, such
   as a [snapTime] fence — ahead of the publish, and so ahead of
   anything the writer reads after [add] returns: the store-load
   handshake of [getTS] against getSnap and the RMW fence. *)
let rec claim t ts i left =
  if left = 0 then -1
  else if
    Atomic.get t.slots.(i) = 0
    && begin
         raise_hwm t (i + 1);
         Atomic.compare_and_set t.slots.(i) 0 ts
       end
  then i
  else claim t ts ((i + 1) mod Array.length t.slots) (left - 1)

let add t ts =
  if ts <= 0 then invalid_arg "Active_set.add: timestamp must be positive";
  let n = Array.length t.slots in
  let start = home () mod n in
  match claim t ts start n with
  | -1 ->
      let b = Backoff.create () in
      let rec retry () =
        Backoff.once b;
        match claim t ts start n with -1 -> retry () | i -> i
      in
      retry ()
  | i -> i

let remove t handle =
  let old = Atomic.exchange t.slots.(handle) 0 in
  assert (old <> 0)

let span t = Atomic.get t.hwm

let remove_value t ts =
  let n = span t in
  let rec loop i =
    if i = n then false
    else if Atomic.get t.slots.(i) = ts && Atomic.compare_and_set t.slots.(i) ts 0
    then true
    else loop (i + 1)
  in
  loop 0

let find_min t =
  let best = ref 0 in
  for i = 0 to span t - 1 do
    let v = Atomic.get t.slots.(i) in
    if v <> 0 && (!best = 0 || v < !best) then best := v
  done;
  if !best = 0 then None else Some !best

let mem t ts =
  let n = span t in
  let rec loop i = i < n && (Atomic.get t.slots.(i) = ts || loop (i + 1)) in
  loop 0

let values t =
  let acc = ref [] in
  for i = 0 to span t - 1 do
    let v = Atomic.get t.slots.(i) in
    if v <> 0 then acc := v :: !acc
  done;
  List.sort Int.compare !acc

let cardinal t =
  let c = ref 0 in
  for i = 0 to span t - 1 do
    if Atomic.get t.slots.(i) <> 0 then incr c
  done;
  !c
