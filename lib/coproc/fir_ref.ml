let max_taps = 64

let check_s16 name v =
  if v < -32768 || v > 32767 then
    invalid_arg (Printf.sprintf "Fir_ref: %s out of signed 16-bit range" name)

let sat16 v = if v < -32768 then -32768 else if v > 32767 then 32767 else v

let validate ~coeffs ~shift n =
  let taps = Array.length coeffs in
  if taps = 0 then invalid_arg "Fir_ref: empty coefficient set";
  if taps > max_taps then invalid_arg "Fir_ref: too many taps";
  if taps > n then invalid_arg "Fir_ref: fewer samples than taps";
  if shift < 0 || shift > 30 then invalid_arg "Fir_ref: shift out of [0, 30]";
  Array.iter (check_s16 "coefficient") coeffs

let filter ~coeffs ~shift x =
  validate ~coeffs ~shift (Array.length x);
  Array.iter (check_s16 "sample") x;
  let taps = Array.length coeffs in
  let n_out = Array.length x - taps + 1 in
  Array.init n_out (fun i ->
      let acc = ref 0 in
      for k = 0 to taps - 1 do
        acc := !acc + (coeffs.(k) * x.(i + k))
      done;
      sat16 (!acc asr shift))

(* Straight from the little-endian input to the output, with no sample
   arrays in between; any 16-bit input is in range. *)
let filter_bytes ~coeffs ~shift input =
  if Bytes.length input mod 2 <> 0 then invalid_arg "Fir_ref: odd byte length";
  validate ~coeffs ~shift (Bytes.length input / 2);
  let taps = Array.length coeffs in
  let n_out = (Bytes.length input / 2) - taps + 1 in
  let out = Bytes.create (2 * n_out) in
  for i = 0 to n_out - 1 do
    let acc = ref 0 in
    for k = 0 to taps - 1 do
      acc := !acc + (coeffs.(k) * Bytes.get_int16_le input (2 * (i + k)))
    done;
    Bytes.set_int16_le out (2 * i) (sat16 (!acc asr shift))
  done;
  out

let output_bytes ~taps input_bytes = input_bytes - (2 * (taps - 1))

let lowpass ~taps ~cutoff =
  if taps < 1 || taps > max_taps then invalid_arg "Fir_ref.lowpass: bad taps";
  if cutoff <= 0.0 || cutoff >= 0.5 then
    invalid_arg "Fir_ref.lowpass: cutoff outside (0, 0.5)";
  let pi = 4.0 *. atan 1.0 in
  let mid = float_of_int (taps - 1) /. 2.0 in
  let raw =
    Array.init taps (fun k ->
        let t = float_of_int k -. mid in
        let sinc =
          if abs_float t < 1e-9 then 2.0 *. cutoff
          else sin (2.0 *. pi *. cutoff *. t) /. (pi *. t)
        in
        let window =
          0.54 -. (0.46 *. cos (2.0 *. pi *. float_of_int k /. float_of_int (taps - 1)))
        in
        sinc *. window)
  in
  (* Scale so the DC gain is about one in Q12, keeping every coefficient
     within 16 bits. *)
  let sum = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun c -> sat16 (int_of_float (c /. sum *. 4096.0))) raw

let sw_cycles_per_tap = 9
let sw_cycles_per_output = 24
