(* Raw timing samples and exact percentiles.

   Every duration in this benchmark is an [int] of nanoseconds read from
   the monotonic clock. Samples are kept unaggregated, one buffer per
   client, so a percentile is an exact order statistic, not the bound of
   a histogram bucket: a 1 µs-tick clock or a log-bucket histogram would
   quantize a ~5 µs get into a handful of values. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = { mutable data : int array; mutable len : int }

(* Preallocate [capacity] so the measured loop does not pay for growth. *)
let create ?(capacity = 1024) () = { data = Array.make (max 16 capacity) 0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let length t = t.len

(* Heap words this buffer occupies (array and record, headers included). *)
let words t = Array.length t.data + 4

(* Every sample of [ts], ascending. *)
let sorted ts =
  let a = Array.concat (List.map (fun t -> Array.sub t.data 0 t.len) ts) in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile [p] (0–100] of an ascending array; 0 when
   there are no samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let max_of sorted =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(n - 1)

(* Median of floats (mean of the middle two for an even count); 0 when
   empty. *)
let median_float values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
