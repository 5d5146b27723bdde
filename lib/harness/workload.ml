module Prng = Rvi_sim.Prng

let adpcm_stream ~seed ~bytes =
  let prng = Prng.create ~seed in
  let out = Bytes.create bytes in
  let st = Rvi_coproc.Adpcm_ref.initial_state () in
  let phase = ref 0.0 and freq = ref 0.02 and low = ref 0 in
  (* A tone whose pitch wanders plus a little noise: keeps the ADPCM
     predictor exercised across its whole step table. Each 16-bit sample
     is encoded as it is drawn, two per compressed byte, low nibble
     first. *)
  for i = 0 to (2 * bytes) - 1 do
    let f = !freq +. (float_of_int (Prng.int prng 21 - 10) /. 5e3) in
    freq := if f < 0.002 then 0.002 else if f > 0.2 then 0.2 else f;
    phase := !phase +. !freq;
    let tone = 9000.0 *. sin !phase in
    let noise = float_of_int (Prng.int prng 2001 - 1000) in
    (* Within +-10 000, so a 16-bit sample as it stands. *)
    let code = Rvi_coproc.Adpcm_ref.encode_sample st (int_of_float (tone +. noise)) in
    if i land 1 = 0 then low := code
    else Bytes.set out (i lsr 1) (Char.chr (!low lor (code lsl 4)))
  done;
  out

let random_bytes ~seed ~n =
  let prng = Prng.create ~seed in
  let b = Bytes.create n in
  Prng.fill_bytes prng b;
  b

let idea_key ~seed =
  let prng = Prng.create ~seed:(seed lxor 0x1DEA) in
  Array.init 8 (fun _ -> Prng.int prng 0x10000)

let idea_plaintext ~seed ~bytes =
  if bytes mod 8 <> 0 then
    invalid_arg "Workload.idea_plaintext: need a multiple of 8 bytes";
  random_bytes ~seed ~n:bytes

let vectors ~seed ~n =
  let prng = Prng.create ~seed in
  let gen () = Array.init n (fun _ -> Prng.int prng 0x1_0000_0000) in
  let a = gen () in
  let b = gen () in
  (a, b)

(* The FIR signal's three-tone part does not depend on the seed, so each
   domain keeps the tone of every sample index it has generated so far
   and extends that table on demand. *)
let fir_tones = Domain.DLS.new_key (fun () -> Float.Array.create 0)

let fir_tone n =
  let table = Domain.DLS.get fir_tones in
  let have = Float.Array.length table in
  if have >= n then table
  else begin
    let grown =
      Float.Array.init (Int.max n (2 * have)) (fun i ->
          if i < have then Float.Array.get table i
          else
            let t = float_of_int i in
            (7000.0 *. sin (0.05 *. t)) +. (4000.0 *. sin (0.31 *. t))
            +. (2000.0 *. sin (0.47 *. t)))
    in
    Domain.DLS.set fir_tones grown;
    grown
  end

let fir_signal ~seed ~bytes =
  if bytes mod 2 <> 0 then invalid_arg "Workload.fir_signal: odd byte count";
  let prng = Prng.create ~seed:(seed lxor 0xF17) in
  let n = bytes / 2 in
  let tone = fir_tone n in
  let b = Bytes.create bytes in
  for i = 0 to n - 1 do
    let noise = float_of_int (Prng.int prng 4001 - 2000) in
    Bytes.set_int16_le b (2 * i) (int_of_float (Float.Array.get tone i +. noise))
  done;
  b

(* Designed once at module initialisation and shared read-only by every
   FIR request; a [Lazy] here would raise when two domains force it at
   once. *)
let fir_coeffs = Rvi_coproc.Fir_ref.lowpass ~taps:16 ~cutoff:0.12
