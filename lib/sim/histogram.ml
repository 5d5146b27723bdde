(* Fixed-bin logarithmic histogram: bounded memory whatever the stream
   length, with a bounded relative error set by the bin growth factor.
   Samples at or below zero land in a dedicated underflow bin (simulated
   durations are never negative, but zero-length services do occur). *)

(* gamma^1024 spans ~1e-6 .. 1e15 with gamma = 1.048576^(1/2)... use an
   explicit growth factor: each bin covers [gamma^i, gamma^(i+1)). *)
let gamma = 1.05
let log_gamma = Float.log gamma

(* Bin 0 covers [min_value, min_value * gamma); values below min_value
   (but > 0) clamp into bin 0, values beyond the top clamp into the last
   bin. 1024 bins at 5% growth cover ~21 decades — microseconds to weeks
   when samples are microsecond latencies. *)
let n_bins = 1024
let min_value = 1e-6

(* Bins live in [n_bins / chunk] chunks, each allocated on its first
   sample: a latency stream touches a few adjacent chunks, so a histogram
   costs a few small blocks instead of one 1024-word array. *)
let chunk = 32

type t = {
  bins : int array array; (* chunk [k] is [[||]] until a sample lands *)
  mutable underflow : int; (* samples <= 0 *)
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    bins = Array.make (n_bins / chunk) [||];
    underflow = 0;
    count = 0;
    sum = 0.0;
    min = Float.infinity;
    max = Float.neg_infinity;
  }

let bin_lower i = min_value *. (gamma ** float_of_int i)

let bin_index x =
  if x <= 0.0 then -1
  else
    let i = int_of_float (Float.floor (Float.log (x /. min_value) /. log_gamma)) in
    let i = if i < 0 then 0 else if i >= n_bins then n_bins - 1 else i in
    (* The log quotient is inexact: a sample sitting on an exact bin
       boundary (x = min_value * gamma^k) can round a hair under k and
       land one bin low, or a hair over and land one bin high. Settle
       against the true bin bounds, which are computed the same way on
       both sides of the comparison and therefore consistent. *)
    if i > 0 && x < bin_lower i then i - 1
    else if i < n_bins - 1 && x >= bin_lower (i + 1) then i + 1
    else i

(* Geometric midpoint of a bin — the value reported for any sample that
   fell into it. *)
let bin_value i =
  if i < 0 then 0.0
  else min_value *. (gamma ** (float_of_int i +. 0.5))

let add t x =
  (if x <= 0.0 then t.underflow <- t.underflow + 1
   else
     let i = bin_index x in
     let k = i / chunk in
     if Array.length t.bins.(k) = 0 then t.bins.(k) <- Array.make chunk 0;
     let c = t.bins.(k) in
     c.(i mod chunk) <- c.(i mod chunk) + 1);
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let sum t = t.sum
let min t = if t.count = 0 then 0.0 else t.min
let max t = if t.count = 0 then 0.0 else t.max
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

(* The q-th percentile (q in [0,100]): the representative value of the bin
   holding the ceil(q/100 * count)-th smallest sample. Exact for the
   underflow bin (those samples are <= 0, reported as 0). The positive
   result is clamped into [min, max] of the observed samples — so a
   single-sample histogram reports the sample itself at every q, and no
   percentile ever exceeds the largest (or undercuts the smallest
   positive) sample because of bin-midpoint rounding. *)
let percentile t q =
  if q < 0.0 || q > 100.0 then invalid_arg "Histogram.percentile: q outside [0,100]";
  if t.count = 0 then 0.0
  else begin
    let rank =
      (* q/100 * count is inexact: an exact-boundary product (q = 50,
         count even) rounding a hair high would push ceil to the next
         rank. Shave an epsilon well under 1/count's resolution first. *)
      let r =
        int_of_float
          (Float.ceil ((q /. 100.0 *. float_of_int t.count) -. 1e-9))
      in
      if r < 1 then 1 else r
    in
    if rank <= t.underflow then 0.0
    else begin
      let remaining = ref (rank - t.underflow) in
      let result = ref (bin_value (n_bins - 1)) in
      (try
         for i = 0 to n_bins - 1 do
           let c = t.bins.(i / chunk) in
           if Array.length c > 0 then remaining := !remaining - c.(i mod chunk);
           if !remaining <= 0 then begin
             result := bin_value i;
             raise Exit
           end
         done
       with Exit -> ());
      let v = if !result > t.max then t.max else !result in
      if t.min > 0.0 && v < t.min then t.min else v
    end
  end

(* Bin-wise sum: both histograms share the fixed bin layout, so merging
   is exact for counts and percentiles (same bins a serial stream would
   have filled) and commutative/associative. *)
let merge_into ~into src =
  Array.iteri
    (fun k c ->
      if Array.length c > 0 && Array.length into.bins.(k) = 0 then
        into.bins.(k) <- Array.make chunk 0;
      Array.iteri (fun j n -> into.bins.(k).(j) <- into.bins.(k).(j) + n) c)
    src.bins;
  into.underflow <- into.underflow + src.underflow;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.count > 0 then begin
    if src.min < into.min then into.min <- src.min;
    if src.max > into.max then into.max <- src.max
  end

let reset t =
  Array.iter (fun c -> Array.fill c 0 (Array.length c) 0) t.bins;
  t.underflow <- 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min <- Float.infinity;
  t.max <- Float.neg_infinity
