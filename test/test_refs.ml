(* Byte-level pins of the software side of a run: the seeded inputs
   [Jobs.generate] draws and the references the coprocessor results are
   checked against. Simulated timing does not depend on the data, and a
   run verifies against a reference that would change along with its
   input, so neither the campaign digests nor the goldens notice a
   changed input byte; these digests do. The branch-free ADPCM kernels
   are also checked against the plain branching formulation kept here. *)

module Jobs = Rvi_harness.Jobs
module Prng = Rvi_sim.Prng
module Adpcm = Rvi_coproc.Adpcm_ref
module Fir = Rvi_coproc.Fir_ref
module Idea = Rvi_coproc.Idea_ref

let add_words b words =
  Array.iter (fun w -> Buffer.add_string b (string_of_int w ^ ",")) words

(* Every field of an input, then its forced reference. *)
let add_input b input =
  (match input with
  | Jobs.Adpcm_in data -> Buffer.add_bytes b data
  | Jobs.Idea_in { key; iv; data; _ } ->
    add_words b key;
    add_words b iv;
    Buffer.add_bytes b data
  | Jobs.Fir_in { coeffs; shift; data } ->
    add_words b coeffs;
    add_words b [| shift |];
    Buffer.add_bytes b data
  | Jobs.Vecadd_in { a; b = v } ->
    add_words b a;
    add_words b v);
  Buffer.add_bytes b (Lazy.force (Jobs.recipe input).Jobs.expected)

let generated_digest kind =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun bytes ->
      let bytes = Jobs.normalize_bytes kind bytes in
      for seed = 0 to 40 do
        add_input b (Jobs.generate kind ~seed ~bytes)
      done)
    [ 1; 7; 64; 255; 1024; 4096; 12288 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_generated_pinned () =
  Alcotest.(check (list (pair string string)))
    "inputs and references per kind"
    [
      ("adpcm", "f75db08cb6e4f830ccaf1c6297b4c9df");
      ("idea", "b832f2440a80c2e320f1404ccdf250df");
      ("fir", "43e1924488ad3fce0facecb0689bdd5b");
      ("vecadd", "b7309110fa59acceb1e9dd5bce3aef1a");
    ]
    (List.map (fun k -> (Jobs.app_name k, generated_digest k)) Jobs.kinds)

(* Random streams through each reference, so a kernel change shows even
   where the generators never lead it. *)
let streams_digest () =
  let prng = Prng.create ~seed:0x5EED in
  let b = Buffer.create (1 lsl 20) in
  let random n =
    let s = Bytes.create n in
    Prng.fill_bytes prng s;
    s
  in
  List.iter
    (fun n ->
      Buffer.add_bytes b (Adpcm.decode (random n));
      Buffer.add_bytes b (Adpcm.encode (random (4 * n)));
      let taps = 1 + Prng.int prng Fir.max_taps in
      let coeffs = Array.init taps (fun _ -> Prng.int prng 65536 - 32768) in
      let shift = Prng.int prng 31 in
      Buffer.add_bytes b
        (Fir.filter_bytes ~coeffs ~shift (random (2 * (taps + n))));
      let key = Array.init 8 (fun _ -> Prng.int prng 0x10000) in
      let data = random (8 * n) in
      Buffer.add_bytes b (Idea.ecb ~key ~decrypt:false data);
      Buffer.add_bytes b (Idea.ecb ~key ~decrypt:true data))
    [ 1; 2; 3; 17; 64; 333; 1024; 3000 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_streams_pinned () =
  Alcotest.(check string) "references of random streams"
    "2873780e6602b981edc3e6fc4c10e865"
    (streams_digest ())

(* {1 ADPCM kernel oracle}

   The textbook IMA formulation: one branch per code bit and on the
   sign. The library's kernels must agree with it on every state. *)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let branching_decode (st : Adpcm.state) code =
  let code = code land 0xF in
  let step = Adpcm.step_table.(st.index) in
  let diff = ref (step lsr 3) in
  if code land 4 <> 0 then diff := !diff + step;
  if code land 2 <> 0 then diff := !diff + (step lsr 1);
  if code land 1 <> 0 then diff := !diff + (step lsr 2);
  let predictor =
    if code land 8 <> 0 then st.predictor - !diff else st.predictor + !diff
  in
  st.predictor <- clamp (-32768) 32767 predictor;
  st.index <- clamp 0 88 (st.index + Adpcm.index_table.(code));
  st.predictor

let branching_encode (st : Adpcm.state) sample =
  let sample = clamp (-32768) 32767 sample in
  let step = Adpcm.step_table.(st.index) in
  let delta = sample - st.predictor in
  let sign = if delta < 0 then 8 else 0 in
  let delta = ref (abs delta) and step = ref step and code = ref sign in
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
  ignore (branching_decode st !code);
  !code

(* States with the clamp edges drawn often: index 0 and 88, predictor at
   either rail. *)
let state_gen =
  QCheck.Gen.(
    pair
      (frequency
         [ (1, return (-32768)); (1, return 32767); (6, int_range (-32768) 32767) ])
      (frequency [ (1, return 0); (1, return 88); (6, int_range 0 88) ]))

let sample_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-32768) 32767);
        (2, int_range (-200_000) 200_000);
        (1, oneofl [ -32769; -32768; 32767; 32768; min_int / 2; max_int / 2 ]);
      ])

let print_state (p, i) = Printf.sprintf "{predictor=%d; index=%d}" p i

let agree f g (predictor, index) x =
  let a = { Adpcm.predictor; index } and b = { Adpcm.predictor; index } in
  let ra = f a x and rb = g b x in
  ra = rb && a.predictor = b.predictor && a.index = b.index

let prop_decode_oracle =
  QCheck.Test.make ~name:"adpcm decode_nibble equals the branching oracle"
    ~count:2000
    (QCheck.make
       ~print:(fun (s, c) -> Printf.sprintf "%s code=%d" (print_state s) c)
       QCheck.Gen.(pair state_gen (int_range (-64) 64)))
    (fun (s, code) -> agree Adpcm.decode_nibble branching_decode s code)

let prop_encode_oracle =
  QCheck.Test.make ~name:"adpcm encode_sample equals the branching oracle"
    ~count:2000
    (QCheck.make
       ~print:(fun (s, x) -> Printf.sprintf "%s sample=%d" (print_state s) x)
       QCheck.Gen.(pair state_gen sample_gen))
    (fun (s, sample) -> agree Adpcm.encode_sample branching_encode s sample)

(* Every (predictor rail, index edge, code) corner, exhaustively. *)
let test_kernel_edges () =
  List.iter
    (fun predictor ->
      List.iter
        (fun index ->
          for code = 0 to 15 do
            Alcotest.(check bool)
              (Printf.sprintf "decode %s code=%d" (print_state (predictor, index)) code)
              true
              (agree Adpcm.decode_nibble branching_decode (predictor, index) code)
          done;
          List.iter
            (fun sample ->
              Alcotest.(check bool)
                (Printf.sprintf "encode %s sample=%d"
                   (print_state (predictor, index)) sample)
                true
                (agree Adpcm.encode_sample branching_encode (predictor, index) sample))
            [ -65536; -32769; -32768; -1; 0; 1; 32767; 32768; 65536 ])
        [ 0; 1; 87; 88 ])
    [ -32768; -32767; 0; 32766; 32767 ]

(* {1 FIR over bytes} *)

let s16_bytes s =
  let b = Bytes.create (2 * Array.length s) in
  Array.iteri (fun i v -> Bytes.set_int16_le b (2 * i) v) s;
  b

let prop_filter_bytes =
  QCheck.Test.make ~name:"fir filter_bytes equals filter on the same samples"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         let s16 = int_range (-32768) 32767 in
         int_range 1 Fir.max_taps >>= fun taps ->
         int_range 0 80 >>= fun extra ->
         triple
           (array_size (return taps) s16)
           (int_range 0 30)
           (array_size (return (taps + extra)) s16)))
    (fun (coeffs, shift, x) ->
      Bytes.equal
        (Fir.filter_bytes ~coeffs ~shift (s16_bytes x))
        (s16_bytes (Fir.filter ~coeffs ~shift x)))

let suite =
  [
    Alcotest.test_case "refs/generated-bytes-pinned" `Quick test_generated_pinned;
    Alcotest.test_case "refs/streams-pinned" `Quick test_streams_pinned;
    Alcotest.test_case "refs/adpcm-kernel-edges" `Quick test_kernel_edges;
    QCheck_alcotest.to_alcotest prop_decode_oracle;
    QCheck_alcotest.to_alcotest prop_encode_oracle;
    QCheck_alcotest.to_alcotest prop_filter_bytes;
  ]
