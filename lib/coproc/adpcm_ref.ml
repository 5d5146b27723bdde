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

let decode_nibble st code =
  let code = code land 0xF in
  let step = step_table.(st.index) in
  let diff = ref (step lsr 3) in
  if code land 4 <> 0 then diff := !diff + step;
  if code land 2 <> 0 then diff := !diff + (step lsr 1);
  if code land 1 <> 0 then diff := !diff + (step lsr 2);
  let predictor =
    if code land 8 <> 0 then st.predictor - !diff else st.predictor + !diff
  in
  st.predictor <- clamp (-32768) 32767 predictor;
  st.index <- clamp 0 88 (st.index + index_table.(code));
  st.predictor

let encode_sample st sample =
  let sample = clamp (-32768) 32767 sample in
  let step = step_table.(st.index) in
  let delta = sample - st.predictor in
  let sign = if delta < 0 then 8 else 0 in
  let delta = abs delta in
  let code = ref sign in
  let delta = ref delta and step = ref step in
  if !delta >= !step then begin
    code := !code lor 4;
    delta := !delta - !step
  end;
  step := !step lsr 1;
  if !delta >= !step then begin
    code := !code lor 2;
    delta := !delta - !step
  end;
  step := !step lsr 1;
  if !delta >= !step then code := !code lor 1;
  (* Update the state through the decoder so both ends stay in lockstep. *)
  ignore (decode_nibble st !code);
  !code

let decoded_size n = 4 * n

(* A signed sample stored little-endian, two's complement. *)
let put_sample buf pos sample =
  let v = sample land 0xFFFF in
  Bytes.set buf pos (Char.chr (v land 0xFF));
  Bytes.set buf (pos + 1) (Char.chr ((v lsr 8) land 0xFF))

let get_sample buf pos =
  let v = Char.code (Bytes.get buf pos) lor (Char.code (Bytes.get buf (pos + 1)) lsl 8) in
  if v land 0x8000 <> 0 then v - 0x10000 else v

let decode input =
  let n = Bytes.length input in
  let out = Bytes.create (decoded_size n) in
  let st = initial_state () in
  for i = 0 to n - 1 do
    let byte = Char.code (Bytes.get input i) in
    put_sample out (4 * i) (decode_nibble st (byte land 0xF));
    put_sample out ((4 * i) + 2) (decode_nibble st (byte lsr 4))
  done;
  out

let encode samples =
  let n = Bytes.length samples in
  if n mod 4 <> 0 then invalid_arg "Adpcm_ref.encode: length must be 4k";
  let out = Bytes.create (n / 4) in
  let st = initial_state () in
  for i = 0 to (n / 4) - 1 do
    let lo = encode_sample st (get_sample samples (4 * i)) in
    let hi = encode_sample st (get_sample samples ((4 * i) + 2)) in
    Bytes.set out i (Char.chr (lo lor (hi lsl 4)))
  done;
  out
