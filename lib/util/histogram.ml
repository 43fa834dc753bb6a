(* Bucket [b] of a value [v]: [v] itself below 16; above, with
   [e = floor (log2 v)] and [shift = e - 3], the top four bits of [v]
   ([v lsr shift], in [8, 16)) pick one of the 8 sub-buckets of octave
   [e], which starts at bucket [8 * shift + 8]. *)

let sub_bits = 3
let max_octave = 40
let bucket_count = (max_octave - sub_bits + 1) lsl sub_bits

type t = { buckets : int Atomic.t array; sum : int Atomic.t }

let log2_floor v =
  let rec go v n =
    if v >= 16 then go (v lsr 4) (n + 4)
    else if v >= 2 then go (v lsr 1) (n + 1)
    else n
  in
  go v 0

let bucket_of_ns v =
  if v < 16 then v
  else
    let shift = log2_floor v - sub_bits in
    min (bucket_count - 1) ((shift lsl sub_bits) + (v lsr shift))

(* The midpoint of bucket [b]: its lower edge plus half its width. *)
let value_of_bucket b =
  if b < 16 then b
  else
    let shift = (b lsr sub_bits) - 1 in
    ((b land 7) lor 8) lsl shift + (1 lsl shift) / 2

let create () =
  { buckets = Array.init bucket_count (fun _ -> Atomic.make 0); sum = Atomic.make 0 }

let record t ns =
  let ns = max 0 ns in
  Atomic.incr t.buckets.(bucket_of_ns ns);
  ignore (Atomic.fetch_and_add t.sum ns)

let counts t = Array.map Atomic.get t.buckets
let count t = Array.fold_left (fun acc b -> acc + Atomic.get b) 0 t.buckets
let sum_ns t = Atomic.get t.sum

let mean_ns t =
  let n = count t in
  if n = 0 then 0.0 else float_of_int (sum_ns t) /. float_of_int n

let add_counts t counts ~sum_ns =
  Array.iteri (fun i n -> ignore (Atomic.fetch_and_add t.buckets.(i) n)) counts;
  ignore (Atomic.fetch_and_add t.sum sum_ns)

let merge hs =
  let out = create () in
  List.iter (fun h -> add_counts out (counts h) ~sum_ns:(sum_ns h)) hs;
  out

let percentile_of_counts counts pct =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (float_of_int total *. pct /. 100.0))) in
    let rec find b acc =
      let acc = acc + counts.(b) in
      if acc >= rank || b = Array.length counts - 1 then value_of_bucket b
      else find (b + 1) acc
    in
    find 0 0
  end

let percentile t pct = percentile_of_counts (counts t) pct
