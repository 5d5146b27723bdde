let step_table =
  [|
    7; 8; 9; 10; 11; 12; 13; 14; 16; 17; 19; 21; 23; 25; 28; 31; 34; 37; 41;
    45; 50; 55; 60; 66; 73; 80; 88; 97; 107; 118; 130; 143; 157; 173; 190;
    209; 230; 253; 279; 307; 337; 371; 408; 449; 494; 544; 598; 658; 724;
    796; 876; 963; 1060; 1166; 1282; 1411; 1552; 1707; 1878; 2066; 2272;
    2499; 2749; 3024; 3327; 3660; 4026; 4428; 4871; 5358; 5894; 6484; 7132;
    7845; 8630; 9493; 10442; 11487; 12635; 13899; 15289; 16818; 18500;
    20350; 22385; 24623; 27086; 29794; 32767;
  |]

let index_table =
  [| -1; -1; -1; -1; 2; 4; 6; 8; -1; -1; -1; -1; 2; 4; 6; 8 |]

type state = { mutable predictor : int; mutable index : int }

let initial_state () = { predictor = 0; index = 0 }

let clamp (lo : int) (hi : int) (v : int) =
  if v < lo then lo else if v > hi then hi else v

(* Both kernels run once per nibble (the coprocessor model decodes
   through [decode_nibble] too), so the code bits and the sign act as
   masks ([- bit] is all ones or zero) rather than as data-dependent
   branches. The clamps stay as written. *)
let decode_nibble st code =
  let code = code land 0xF in
  let step = step_table.(st.index) in
  let diff =
    (step lsr 3)
    + (step land -((code lsr 2) land 1))
    + ((step lsr 1) land -((code lsr 1) land 1))
    + ((step lsr 2) land -(code land 1))
  in
  let neg = -((code lsr 3) land 1) in
  st.predictor <- clamp (-32768) 32767 (st.predictor + ((diff lxor neg) - neg));
  st.index <- clamp 0 88 (st.index + index_table.(code));
  st.predictor

let encode_sample st sample =
  let sample = clamp (-32768) 32767 sample in
  let step = step_table.(st.index) in
  let delta = sample - st.predictor in
  let neg = -Bool.to_int (delta < 0) in
  let delta = (delta lxor neg) - neg in
  let b4 = -Bool.to_int (delta >= step) in
  let delta = delta - (step land b4) in
  let step = step lsr 1 in
  let b2 = -Bool.to_int (delta >= step) in
  let delta = delta - (step land b2) in
  let b1 = -Bool.to_int (delta >= step lsr 1) in
  let code = (neg land 8) lor (b4 land 4) lor (b2 land 2) lor (b1 land 1) in
  (* Update the state through the decoder so both ends stay in lockstep. *)
  ignore (decode_nibble st code);
  code

let decoded_size n = 4 * n

(* Samples are stored little-endian, two's complement. *)
let decode input =
  let n = Bytes.length input in
  let out = Bytes.create (decoded_size n) in
  let st = initial_state () in
  for i = 0 to n - 1 do
    let byte = Char.code (Bytes.get input i) in
    Bytes.set_int16_le out (4 * i) (decode_nibble st (byte land 0xF));
    Bytes.set_int16_le out ((4 * i) + 2) (decode_nibble st (byte lsr 4))
  done;
  out

let encode samples =
  let n = Bytes.length samples in
  if n mod 4 <> 0 then invalid_arg "Adpcm_ref.encode: length must be 4k";
  let out = Bytes.create (n / 4) in
  let st = initial_state () in
  for i = 0 to (n / 4) - 1 do
    let lo = encode_sample st (Bytes.get_int16_le samples (4 * i)) in
    let hi = encode_sample st (Bytes.get_int16_le samples ((4 * i) + 2)) in
    Bytes.set out i (Char.chr (lo lor (hi lsl 4)))
  done;
  out
