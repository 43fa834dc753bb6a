(* K-way merge over sub-iterators.

   Two engines share the per-source bookkeeping below: a linear scan for
   small fan-in (an LSM point-merge is a handful of components, where O(k)
   per step beats heap bookkeeping in constant factor) and a binary heap
   with winner caching for wide merges (sharded scans, multi-source
   compactions), where only the sub-iterator that just advanced re-sifts.

   Each source caches its current key ([cur_key]) so a comparison never
   re-enters the underlying iterator's closures, and remembers an
   exhaustion {e bound} — a fact about the source's content learned from a
   failed seek or a next() that ran off the end. A later [seek target]
   whose target the bound proves empty skips the physical re-seek
   entirely; the source is then [live = false] even though the underlying
   iterator may still sit valid at a stale position, so it must never be
   consulted until a real seek refreshes it. Bounds are facts about
   content, not position: they survive rewinds and are only ever replaced
   by facts at least as strong. *)

type bound =
  | No_bound
  | Empty  (** the source has no entries at all *)
  | Ge_empty of string  (** no entries [>= k] (failed seek at [k]) *)
  | Gt_empty of string  (** no entries [> k] (exhausted after key [k]) *)

type sub = {
  it : Iter.t;
  mutable cur_key : string;  (* cached key; meaningful iff [live] *)
  mutable live : bool;
  mutable bound : bound;
}

let bound_proves_none_ge ~cmp bound target =
  match bound with
  | No_bound -> false
  | Empty -> true
  | Ge_empty t0 -> cmp target t0 >= 0
  | Gt_empty k -> cmp target k > 0

let wrap it = { it; cur_key = ""; live = false; bound = No_bound }

let sub_seek_to_first s =
  (match s.bound with
  | Empty -> s.live <- false
  | _ ->
      s.it.Iter.seek_to_first ();
      if s.it.Iter.valid () then begin
        s.cur_key <- s.it.Iter.key ();
        s.live <- true
      end
      else begin
        s.live <- false;
        s.bound <- Empty
      end);
  ()

let sub_seek ~cmp s target =
  if bound_proves_none_ge ~cmp s.bound target then s.live <- false
  else begin
    s.it.Iter.seek target;
    if s.it.Iter.valid () then begin
      s.cur_key <- s.it.Iter.key ();
      s.live <- true
    end
    else begin
      s.live <- false;
      (* Everything >= target is absent; this is at least as strong as
         any bound that let the seek happen. *)
      s.bound <- Ge_empty target
    end
  end

(* Caller guarantees [s.live]. *)
let sub_advance s =
  let k = s.cur_key in
  s.it.Iter.next ();
  if s.it.Iter.valid () then s.cur_key <- s.it.Iter.key ()
  else begin
    s.live <- false;
    s.bound <- Gt_empty k
  end

let merge_linear ~cmp subs =
  let subs = Array.of_list (List.map wrap subs) in
  let n = Array.length subs in
  let cur = ref (-1) in
  (* Invariant: [!cur >= 0] iff some source is live, and then it is the
     smallest (ties to the lowest index = newest component), so [next]
     needs no separate validity re-check. *)
  let recompute () =
    cur := -1;
    for i = n - 1 downto 0 do
      if subs.(i).live
         && (!cur = -1 || cmp subs.(i).cur_key subs.(!cur).cur_key <= 0)
      then cur := i
    done
  in
  {
    Iter.seek_to_first =
      (fun () ->
        Array.iter sub_seek_to_first subs;
        recompute ());
    seek =
      (fun target ->
        Array.iter (fun s -> sub_seek ~cmp s target) subs;
        recompute ());
    valid = (fun () -> !cur >= 0);
    key = (fun () -> subs.(!cur).cur_key);
    value = (fun () -> subs.(!cur).it.Iter.value ());
    entry = (fun () -> subs.(!cur).it.Iter.entry ());
    next =
      (fun () ->
        if !cur >= 0 then begin
          sub_advance subs.(!cur);
          recompute ()
        end);
  }

let merge_heap ~cmp subs =
  let subs = Array.of_list (List.map wrap subs) in
  let n = Array.length subs in
  let heap = Array.make (max n 1) 0 in
  let m = ref 0 in
  let less a b =
    let c = cmp subs.(a).cur_key subs.(b).cur_key in
    c < 0 || (c = 0 && a < b)
  in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = ref i in
    if l < !m && less heap.(l) heap.(!s) then s := l;
    if r < !m && less heap.(r) heap.(!s) then s := r;
    if !s <> i then begin
      swap i !s;
      sift_down !s
    end
  in
  let rebuild () =
    m := 0;
    for i = 0 to n - 1 do
      if subs.(i).live then begin
        heap.(!m) <- i;
        incr m
      end
    done;
    for i = (!m / 2) - 1 downto 0 do
      sift_down i
    done
  in
  let root () = subs.(heap.(0)) in
  {
    Iter.seek_to_first =
      (fun () ->
        Array.iter sub_seek_to_first subs;
        rebuild ());
    seek =
      (fun target ->
        Array.iter (fun s -> sub_seek ~cmp s target) subs;
        rebuild ());
    valid = (fun () -> !m > 0);
    key = (fun () -> (root ()).cur_key);
    value = (fun () -> (root ()).it.Iter.value ());
    entry = (fun () -> (root ()).it.Iter.entry ());
    next =
      (fun () ->
        if !m > 0 then begin
          let s = root () in
          (* Winner caching: only the advanced source re-sifts. *)
          sub_advance s;
          if not s.live then begin
            heap.(0) <- heap.(!m - 1);
            decr m
          end;
          if !m > 0 then sift_down 0
        end);
  }

(* The crossover is empirical: below ~4 sources the linear scan's tight
   loop wins; above it the heap's O(log k) advance does. *)
let heap_threshold = 4

let merge ~cmp subs =
  if List.length subs <= heap_threshold then merge_linear ~cmp subs
  else merge_heap ~cmp subs
