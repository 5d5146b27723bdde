(* Order statistics shared by the workloads, the comparison and the tests. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the spreads printed here are the ones an external check
   recomputes from the same values. A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  match ld with
  | 0 -> (0.0, 0.0, 0.0)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* The exclusive method's middle quartile is the median. *)
let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

(* A tail is reported at the highest of these percentiles that leaves at
   least ten samples beyond it: p95 for 200 samples, p99 from 1000. *)
let tail_ladder = [ 99; 95; 90 ]

let tail_percentile n =
  match List.find_opt (fun p -> n * (100 - p) >= 1000) tail_ladder with
  | Some p -> p
  | None -> 50

(* Nearest-rank percentile, [p] in whole percent. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = ((p * n) + 99) / 100 in
    a.(max 0 (min (n - 1) (rank - 1)))

let ratio num den = if den = 0.0 then 0.0 else num /. den
