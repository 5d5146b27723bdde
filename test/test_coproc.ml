(* Tests for the coprocessor models and reference implementations
   (rvi_coproc): codec correctness, cipher test vectors, port protocol, and
   whole coprocessors run against the direct physical port. *)

module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Clock = Rvi_sim.Clock
module Cp_port = Rvi_core.Cp_port
module Adpcm = Rvi_coproc.Adpcm_ref
module Idea = Rvi_coproc.Idea_ref
module Dport = Rvi_coproc.Dport

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_bytes msg a b = Alcotest.(check string) msg (Bytes.to_string a) (Bytes.to_string b)

(* {1 ADPCM reference} *)

let test_adpcm_tables () =
  checki "step table size" 89 (Array.length Adpcm.step_table);
  checki "first step" 7 Adpcm.step_table.(0);
  checki "last step" 32767 Adpcm.step_table.(88);
  checki "index table size" 16 (Array.length Adpcm.index_table);
  checkb "steps increase" true
    (Array.for_all (fun x -> x > 0) Adpcm.step_table
    &&
    let ok = ref true in
    for i = 1 to 88 do
      if Adpcm.step_table.(i) <= Adpcm.step_table.(i - 1) then ok := false
    done;
    !ok)

let test_adpcm_decode_basic () =
  let st = Adpcm.initial_state () in
  (* Code 0 with predictor 0 and step 7: diff = 7>>3 = 0, predictor stays. *)
  checki "code 0" 0 (Adpcm.decode_nibble st 0);
  let st2 = Adpcm.initial_state () in
  (* Code 7 from reset: 0 + 7>>3 + 7 + 3 + 1 = 11. *)
  checki "code 7" 11 (Adpcm.decode_nibble st2 7);
  checki "index adapted" 8 st2.Adpcm.index;
  let st3 = Adpcm.initial_state () in
  (* Sign bit subtracts. *)
  checki "code 15" (-11) (Adpcm.decode_nibble st3 15)

let test_adpcm_sizes () =
  checki "4x expansion" 400 (Adpcm.decoded_size 100);
  let input = Bytes.make 32 '\x42' in
  checki "decode length" 128 (Bytes.length (Adpcm.decode input));
  Alcotest.check_raises "encode length"
    (Invalid_argument "Adpcm_ref.encode: length must be 4k") (fun () ->
      ignore (Adpcm.encode (Bytes.make 7 ' ')))

let prop_adpcm_clamped =
  QCheck.Test.make ~name:"adpcm decoded samples stay within 16-bit range"
    ~count:100
    QCheck.(list_of_size (Gen.return 64) (int_bound 255))
    (fun codes ->
      let st = Adpcm.initial_state () in
      List.for_all
        (fun byte ->
          let s1 = Adpcm.decode_nibble st (byte land 0xF) in
          let s2 = Adpcm.decode_nibble st (byte lsr 4) in
          s1 >= -32768 && s1 <= 32767 && s2 >= -32768 && s2 <= 32767)
        codes)

let prop_adpcm_deterministic =
  QCheck.Test.make ~name:"adpcm decode is a pure function" ~count:50
    QCheck.(list_of_size (Gen.return 100) (int_bound 255))
    (fun bytes ->
      let input = Bytes.of_string (String.init 100 (fun i -> Char.chr (List.nth bytes i))) in
      Bytes.equal (Adpcm.decode input) (Adpcm.decode input))

let test_adpcm_encode_tracks () =
  (* The encoder must track a slow ramp closely enough to be audio-like:
     decode (encode pcm) within a few steps of the original at low level. *)
  let n = 256 in
  let pcm = Bytes.create (4 * n) in
  for i = 0 to (2 * n) - 1 do
    let v = (i * 13) mod 2048 in
    Bytes.set pcm (2 * i) (Char.chr (v land 0xFF));
    Bytes.set pcm ((2 * i) + 1) (Char.chr ((v lsr 8) land 0xFF))
  done;
  let decoded = Adpcm.decode (Adpcm.encode pcm) in
  checki "same length" (Bytes.length pcm) (Bytes.length decoded)

(* {1 IDEA reference} *)

let test_idea_mul () =
  checki "ordinary" 6 (Idea.mul 2 3);
  checki "zero means 2^16" 65535 (Idea.mul 0 2);
  (* 65536 * 2 mod 65537 = 65535 *)
  checki "identity" 5 (Idea.mul 5 1);
  checki "mod reduction" ((40000 * 40000) mod 65537) (Idea.mul 40000 40000)

let prop_idea_mul_inverse =
  QCheck.Test.make ~name:"idea mul_inv is a multiplicative inverse" ~count:300
    QCheck.(int_bound 0xFFFF)
    (fun a -> Idea.mul a (Idea.mul_inv a) = 1)

let prop_idea_add_inverse =
  QCheck.Test.make ~name:"idea add_inv is an additive inverse" ~count:300
    QCheck.(int_bound 0xFFFF)
    (fun a -> Idea.add a (Idea.add_inv a) = 0)

let prop_idea_mul_comm =
  QCheck.Test.make ~name:"idea mul commutative" ~count:300
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) -> Idea.mul a b = Idea.mul b a)

let test_idea_key_schedule () =
  let key = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let sub = Idea.expand_key key in
  checki "52 subkeys" 52 (Array.length sub);
  checki "first eight are the key" 1 sub.(0);
  checki "k7" 8 sub.(7);
  (* After the 25-bit rotation the 9th subkey is well known for this key. *)
  checki "k8 from rotation" 0x0400 sub.(8)

let test_idea_testvector () =
  (* The published IDEA test vector: K = (1..8), X = (0,1,2,3). *)
  let key = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let sub = Idea.expand_key key in
  let c1, c2, c3, c4 = Idea.crypt_block sub (0, 1, 2, 3) in
  checki "c1" 0x11FB c1;
  checki "c2" 0xED2B c2;
  checki "c3" 0x0198 c3;
  checki "c4" 0x6DE5 c4;
  (* And decryption inverts it. *)
  let inv = Idea.invert_key sub in
  let p1, p2, p3, p4 = Idea.crypt_block inv (c1, c2, c3, c4) in
  checkb "decrypt recovers" true ((p1, p2, p3, p4) = (0, 1, 2, 3))

let prop_idea_roundtrip =
  QCheck.Test.make ~name:"idea decrypt . encrypt = identity (any key/block)"
    ~count:200
    QCheck.(
      pair
        (array_of_size (Gen.return 8) (int_bound 0xFFFF))
        (quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF)
           (int_bound 0xFFFF)))
    (fun (key, block) ->
      let sub = Idea.expand_key key in
      let inv = Idea.invert_key sub in
      Idea.crypt_block inv (Idea.crypt_block sub block) = block)

let test_idea_bytes_layout () =
  let b = Bytes.of_string "\x11\x22\x33\x44\x55\x66\x77\x88" in
  let x1, x2, x3, x4 = Idea.block_of_bytes b ~pos:0 in
  checki "big-endian words" 0x1122 x1;
  checki "x4" 0x7788 x4;
  let out = Bytes.create 8 in
  Idea.block_to_bytes out ~pos:0 (x1, x2, x3, x4);
  check_bytes "roundtrip" b out;
  (* Bus-word view agrees with byte view. *)
  let lo = 0x44332211 and hi = 0x88776655 in
  checkb "words_of_le32" true (Idea.words_of_le32 ~lo ~hi = (x1, x2, x3, x4));
  checkb "le32_of_words" true (Idea.le32_of_words (x1, x2, x3, x4) = (lo, hi))

let prop_idea_ecb_roundtrip =
  QCheck.Test.make ~name:"idea ECB roundtrip over random buffers" ~count:30
    QCheck.(
      pair (array_of_size (Gen.return 8) (int_bound 0xFFFF)) (int_range 1 16))
    (fun (key, blocks) ->
      let input = Rvi_harness.Workload.random_bytes ~seed:blocks ~n:(8 * blocks) in
      let ct = Idea.ecb ~key ~decrypt:false input in
      (not (Bytes.equal ct input))
      && Bytes.equal (Idea.ecb ~key ~decrypt:true ct) input)

(* {1 Vecadd reference} *)

let test_vecadd_reference () =
  let a = [| 1; 2; 0xFFFF_FFFF |] and b = [| 10; 20; 1 |] in
  Alcotest.(check (array int)) "wrapping add" [| 11; 22; 0 |]
    (Rvi_coproc.Vecadd.reference ~a ~b);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vecadd.reference: length mismatch") (fun () ->
      ignore (Rvi_coproc.Vecadd.reference ~a ~b:[| 1 |]))

(* {1 Dport protocol} *)

let geom = Rvi_mem.Page.geometry ~page_size:2048 ~n_pages:8

let test_dport_basic () =
  let dpram = Rvi_mem.Dpram.create geom in
  let d = Dport.create ~dpram in
  Dport.set_region d ~region:0 ~base:1024 ~size:64;
  Dport.set_params d [ 5; 6 ];
  Rvi_mem.Dpram.write dpram ~width:32 1028 0xFACE;
  (* cycle 1: issue; commit moves it in flight; cycle 2: data. *)
  Dport.sample d;
  Dport.issue d ~region:0 ~addr:4 ~wr:false ~width:Cp_port.W32 ~data:0;
  checkb "busy" true (Dport.busy d);
  Dport.commit d;
  Dport.sample d;
  checkb "ready next cycle" true (Dport.ready d);
  checki "data" 0xFACE (Dport.data d);
  (* Params are a register file at region 255. *)
  Dport.issue d ~region:Cp_port.param_obj ~addr:4 ~wr:false ~width:Cp_port.W32
    ~data:0;
  Dport.commit d;
  Dport.sample d;
  checki "param" 6 (Dport.data d)

let test_dport_bounds () =
  let dpram = Rvi_mem.Dpram.create geom in
  let d = Dport.create ~dpram in
  Dport.set_region d ~region:0 ~base:0 ~size:16;
  Dport.sample d;
  Dport.issue d ~region:0 ~addr:14 ~wr:false ~width:Cp_port.W32 ~data:0;
  Dport.commit d;
  (match Dport.sample d with
  | () -> Alcotest.fail "out-of-window access accepted"
  | exception Dport.Out_of_region { region = 0; addr = 14 } -> ());
  let d2 = Dport.create ~dpram in
  Dport.sample d2;
  Dport.issue d2 ~region:9 ~addr:0 ~wr:false ~width:Cp_port.W8 ~data:0;
  Dport.commit d2;
  (match Dport.sample d2 with
  | () -> Alcotest.fail "unknown region accepted"
  | exception Dport.Out_of_region { region = 9; _ } -> ());
  Alcotest.check_raises "window outside memory"
    (Invalid_argument "Dport.set_region: window outside the dual-port RAM")
    (fun () -> Dport.set_region d ~region:1 ~base:16000 ~size:1024)

let test_dport_start_finish () =
  let dpram = Rvi_mem.Dpram.create geom in
  let d = Dport.create ~dpram in
  checkb "not started" false (Dport.start_seen d);
  Dport.assert_start d;
  Dport.sample d;
  checkb "start seen once" true (Dport.start_seen d);
  Dport.sample d;
  checkb "start consumed" false (Dport.start_seen d);
  Dport.finish d;
  checkb "finished" true (Dport.finished d);
  Dport.assert_start d;
  Dport.sample d;
  checkb "restart clears fin" false (Dport.finished d)

(* {1 Whole coprocessors over the direct port}

   Running each machine against hand-placed physical windows checks the
   FSMs independently of the whole OS stack: output must be bit-exact
   against the reference. *)

let run_direct ~clock_hz ~divide ~make ~regions ~params ~watchdog_ms =
  let engine = Engine.create () in
  let cost = Rvi_os.Cost_model.default ~cpu_freq_hz:133_000_000 in
  let kernel = Rvi_os.Kernel.create ~engine ~cost ~sdram_bytes:(1024 * 1024) () in
  let dpram = Rvi_mem.Dpram.create geom in
  let dport = Dport.create ~dpram in
  let coproc = make (Rvi_coproc.Mem_port.Direct dport) in
  let clock = Clock.create engine ~name:"c" ~freq_hz:clock_hz in
  Clock.add clock (Clock.divided ~clock ~divide coproc.Rvi_coproc.Coproc.component);
  let specs =
    List.map
      (fun (region, data, size, dir) ->
        let buf =
          match data with
          | Some b -> Rvi_os.Uspace.of_bytes kernel b
          | None -> Rvi_os.Uspace.alloc kernel size
        in
        { Rvi_coproc.Normal_driver.region; buf; dir })
      regions
  in
  let result =
    Rvi_coproc.Normal_driver.run ~kernel ~dpram ~ahb:Rvi_mem.Ahb.default
      ~clocks:[ clock ] ~dport ~coproc ~regions:specs ~params
      ~watchdog:(Simtime.of_ms watchdog_ms) ()
  in
  let read region =
    let spec =
      List.find (fun s -> s.Rvi_coproc.Normal_driver.region = region) specs
    in
    Rvi_os.Uspace.read kernel spec.Rvi_coproc.Normal_driver.buf
  in
  (result, read)

let test_vecadd_coproc_direct () =
  let n = 50 in
  let a, b = Rvi_harness.Workload.vectors ~seed:3 ~n in
  let to_bytes words =
    let bts = Bytes.create (4 * Array.length words) in
    Array.iteri
      (fun i w ->
        for k = 0 to 3 do
          Bytes.set bts ((4 * i) + k) (Char.chr ((w lsr (8 * k)) land 0xFF))
        done)
      words;
    bts
  in
  let result, read =
    run_direct ~clock_hz:40_000_000 ~divide:1 ~make:Rvi_coproc.Vecadd.create
      ~regions:
        [
          (0, Some (to_bytes a), 4 * n, Rvi_core.Mapped_object.In);
          (1, Some (to_bytes b), 4 * n, Rvi_core.Mapped_object.In);
          (2, None, 4 * n, Rvi_core.Mapped_object.Out);
        ]
      ~params:[ n ] ~watchdog_ms:100
  in
  checkb "ran" true (result = Ok ());
  check_bytes "bit-exact against reference"
    (to_bytes (Rvi_coproc.Vecadd.reference ~a ~b))
    (read 2)

let test_adpcm_coproc_direct () =
  let input = Rvi_harness.Workload.adpcm_stream ~seed:4 ~bytes:1024 in
  let result, read =
    run_direct ~clock_hz:40_000_000 ~divide:1 ~make:Rvi_coproc.Adpcm_coproc.create
      ~regions:
        [
          (0, Some input, Bytes.length input, Rvi_core.Mapped_object.In);
          (1, None, Adpcm.decoded_size (Bytes.length input), Rvi_core.Mapped_object.Out);
        ]
      ~params:[ Bytes.length input ] ~watchdog_ms:1000
  in
  checkb "ran" true (result = Ok ());
  check_bytes "bit-exact against reference" (Adpcm.decode input) (read 1)

let test_idea_coproc_direct () =
  let key = Rvi_harness.Workload.idea_key ~seed:5 in
  let input = Rvi_harness.Workload.idea_plaintext ~seed:5 ~bytes:2048 in
  let result, read =
    run_direct ~clock_hz:24_000_000 ~divide:4 ~make:Rvi_coproc.Idea_coproc.create
      ~regions:
        [
          (0, Some input, Bytes.length input, Rvi_core.Mapped_object.In);
          (1, None, Bytes.length input, Rvi_core.Mapped_object.Out);
        ]
      ~params:
        (Rvi_coproc.Idea_coproc.params
           ~n_blocks:(Bytes.length input / 8)
           ~decrypt:false ~key)
      ~watchdog_ms:2000
  in
  checkb "ran" true (result = Ok ());
  check_bytes "bit-exact against reference"
    (Idea.ecb ~key ~decrypt:false input)
    (read 1)

let test_idea_coproc_decrypt_direct () =
  let key = Rvi_harness.Workload.idea_key ~seed:6 in
  let plain = Rvi_harness.Workload.idea_plaintext ~seed:6 ~bytes:512 in
  let ct = Idea.ecb ~key ~decrypt:false plain in
  let result, read =
    run_direct ~clock_hz:24_000_000 ~divide:4 ~make:Rvi_coproc.Idea_coproc.create
      ~regions:
        [
          (0, Some ct, Bytes.length ct, Rvi_core.Mapped_object.In);
          (1, None, Bytes.length ct, Rvi_core.Mapped_object.Out);
        ]
      ~params:
        (Rvi_coproc.Idea_coproc.params ~n_blocks:(Bytes.length ct / 8)
           ~decrypt:true ~key)
      ~watchdog_ms:2000
  in
  checkb "ran" true (result = Ok ());
  check_bytes "decrypt recovers the plaintext" plain (read 1)

(* {1 Normal driver} *)

let test_normal_driver_exceeds () =
  let result, _ =
    run_direct ~clock_hz:40_000_000 ~divide:1 ~make:Rvi_coproc.Vecadd.create
      ~regions:
        [
          (0, None, 8 * 1024, Rvi_core.Mapped_object.In);
          (1, None, 8 * 1024, Rvi_core.Mapped_object.In);
          (2, None, 8 * 1024, Rvi_core.Mapped_object.Out);
        ]
      ~params:[ 2048 ] ~watchdog_ms:10
  in
  match result with
  | Error (Rvi_coproc.Normal_driver.Exceeds_memory { required; available }) ->
    checki "required" (24 * 1024) required;
    checki "available" (16 * 1024) available
  | Ok () | Error _ -> Alcotest.fail "oversized working set accepted"

let test_normal_driver_watchdog () =
  (* A coprocessor that never finishes must trip the watchdog, not hang. *)
  let dead =
    {
      Rvi_coproc.Coproc.name = "dead";
      component = Clock.component ~name:"dead" ~compute:ignore ~commit:ignore ();
      finished = (fun () -> false);
      reset = ignore;
      stats = Rvi_sim.Stats.create ();
    }
  in
  let result, _ =
    run_direct ~clock_hz:1_000_000 ~divide:1
      ~make:(fun _ -> dead)
      ~regions:[]
      ~params:[] ~watchdog_ms:1
  in
  checkb "watchdog fired" true (result = Error Rvi_coproc.Normal_driver.Hardware_stall)

let suite =
  [
    Alcotest.test_case "adpcm/tables" `Quick test_adpcm_tables;
    Alcotest.test_case "adpcm/decode-basic" `Quick test_adpcm_decode_basic;
    Alcotest.test_case "adpcm/sizes" `Quick test_adpcm_sizes;
    QCheck_alcotest.to_alcotest prop_adpcm_clamped;
    QCheck_alcotest.to_alcotest prop_adpcm_deterministic;
    Alcotest.test_case "adpcm/encode-tracks" `Quick test_adpcm_encode_tracks;
    Alcotest.test_case "idea/mul" `Quick test_idea_mul;
    QCheck_alcotest.to_alcotest prop_idea_mul_inverse;
    QCheck_alcotest.to_alcotest prop_idea_add_inverse;
    QCheck_alcotest.to_alcotest prop_idea_mul_comm;
    Alcotest.test_case "idea/key-schedule" `Quick test_idea_key_schedule;
    Alcotest.test_case "idea/test-vector" `Quick test_idea_testvector;
    QCheck_alcotest.to_alcotest prop_idea_roundtrip;
    Alcotest.test_case "idea/byte-layout" `Quick test_idea_bytes_layout;
    QCheck_alcotest.to_alcotest prop_idea_ecb_roundtrip;
    Alcotest.test_case "vecadd/reference" `Quick test_vecadd_reference;
    Alcotest.test_case "dport/basic" `Quick test_dport_basic;
    Alcotest.test_case "dport/bounds" `Quick test_dport_bounds;
    Alcotest.test_case "dport/start-finish" `Quick test_dport_start_finish;
    Alcotest.test_case "vecadd/coproc-direct" `Quick test_vecadd_coproc_direct;
    Alcotest.test_case "adpcm/coproc-direct" `Quick test_adpcm_coproc_direct;
    Alcotest.test_case "idea/coproc-direct" `Quick test_idea_coproc_direct;
    Alcotest.test_case "idea/coproc-decrypt" `Quick test_idea_coproc_decrypt_direct;
    Alcotest.test_case "normal_driver/exceeds-memory" `Quick test_normal_driver_exceeds;
    Alcotest.test_case "normal_driver/watchdog" `Quick test_normal_driver_watchdog;
  ]

(* {1 FIR reference} *)

module Fir = Rvi_coproc.Fir_ref

let test_fir_impulse () =
  (* With a unit impulse and no shift, the output replays the coefficient
     set (time-reversed index: y[i] = h[p - i]). *)
  let coeffs = [| 3; -5; 7; 11 |] in
  let x = Array.make 16 0 in
  x.(6) <- 1;
  let y = Fir.filter ~coeffs ~shift:0 x in
  checki "y[6] = h0" 3 y.(6);
  checki "y[5] = h1" (-5) y.(5);
  checki "y[4] = h2" 7 y.(4);
  checki "y[3] = h3" 11 y.(3);
  checki "elsewhere zero" 0 y.(0);
  checki "output length" 13 (Array.length y)

let test_fir_saturation () =
  let coeffs = [| 32767; 32767 |] in
  let x = [| 32767; 32767; -32768; -32768 |] in
  let y = Fir.filter ~coeffs ~shift:0 x in
  checki "positive clamp" 32767 y.(0);
  checki "negative clamp" (-32768) y.(2)

let test_fir_dc_gain () =
  (* The low-pass design has unit DC gain in Q12: a constant signal passes
     through (within quantisation). *)
  let coeffs = Fir.lowpass ~taps:16 ~cutoff:0.12 in
  let x = Array.make 64 1000 in
  let y = Fir.filter ~coeffs ~shift:12 x in
  let mid = y.(Array.length y / 2) in
  checkb "dc gain near one" true (abs (mid - 1000) < 40)

let test_fir_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Fir_ref: empty coefficient set")
    (fun () -> ignore (Fir.filter ~coeffs:[||] ~shift:0 [| 1 |]));
  Alcotest.check_raises "too many taps" (Invalid_argument "Fir_ref: too many taps")
    (fun () -> ignore (Fir.filter ~coeffs:(Array.make 65 0) ~shift:0 (Array.make 100 0)));
  Alcotest.check_raises "short input" (Invalid_argument "Fir_ref: fewer samples than taps")
    (fun () -> ignore (Fir.filter ~coeffs:[| 1; 2; 3 |] ~shift:0 [| 1 |]));
  Alcotest.check_raises "bad shift" (Invalid_argument "Fir_ref: shift out of [0, 30]")
    (fun () -> ignore (Fir.filter ~coeffs:[| 1 |] ~shift:31 [| 1 |]))

let prop_fir_linear =
  QCheck.Test.make ~name:"fir is linear below saturation" ~count:100
    QCheck.(list_of_size (Gen.return 24) (int_range (-100) 100))
    (fun xs ->
      let coeffs = [| 2; -3; 5; 1 |] in
      let x = Array.of_list xs in
      let y1 = Fir.filter ~coeffs ~shift:0 x in
      let y2 = Fir.filter ~coeffs ~shift:0 (Array.map (fun v -> 3 * v) x) in
      Array.for_all2 (fun a b -> 3 * a = b) y1 y2)

let prop_fir_bytes_consistent =
  QCheck.Test.make ~name:"fir byte interface agrees with the array interface"
    ~count:50
    QCheck.(list_of_size (Gen.return 40) (int_range (-2000) 2000))
    (fun xs ->
      let coeffs = [| 7; -2; 9 |] in
      let x = Array.of_list xs in
      let input =
        let b = Bytes.create (2 * Array.length x) in
        Array.iteri
          (fun i v ->
            let u = v land 0xFFFF in
            Bytes.set b (2 * i) (Char.chr (u land 0xFF));
            Bytes.set b ((2 * i) + 1) (Char.chr ((u lsr 8) land 0xFF)))
          x;
        b
      in
      let via_bytes = Fir.filter_bytes ~coeffs ~shift:2 input in
      let direct = Fir.filter ~coeffs ~shift:2 x in
      Array.for_all2
        (fun i v ->
          let u =
            Char.code (Bytes.get via_bytes (2 * i))
            lor (Char.code (Bytes.get via_bytes ((2 * i) + 1)) lsl 8)
          in
          let s = if u land 0x8000 <> 0 then u - 0x10000 else u in
          s = v)
        (Array.init (Array.length direct) (fun i -> i))
        direct)

let test_fir_coproc_direct () =
  let coeffs = Fir.lowpass ~taps:12 ~cutoff:0.2 in
  let input = Rvi_harness.Workload.fir_signal ~seed:8 ~bytes:2048 in
  let taps = Array.length coeffs in
  let coeff_bytes =
    let b = Bytes.create (2 * taps) in
    Array.iteri
      (fun i c ->
        let u = c land 0xFFFF in
        Bytes.set b (2 * i) (Char.chr (u land 0xFF));
        Bytes.set b ((2 * i) + 1) (Char.chr ((u lsr 8) land 0xFF)))
      coeffs;
    b
  in
  let n_out = (Bytes.length input / 2) - taps + 1 in
  let result, read =
    run_direct ~clock_hz:40_000_000 ~divide:1 ~make:Rvi_coproc.Fir_coproc.create
      ~regions:
        [
          (0, Some input, Bytes.length input, Rvi_core.Mapped_object.In);
          (1, Some coeff_bytes, 2 * taps, Rvi_core.Mapped_object.In);
          (2, None, 2 * n_out, Rvi_core.Mapped_object.Out);
        ]
      ~params:(Rvi_coproc.Fir_coproc.params ~n_out ~taps ~shift:12)
      ~watchdog_ms:1000
  in
  checkb "ran" true (result = Ok ());
  check_bytes "bit-exact against reference"
    (Fir.filter_bytes ~coeffs ~shift:12 input)
    (read 2)

let fir_suite =
  [
    Alcotest.test_case "fir/impulse" `Quick test_fir_impulse;
    Alcotest.test_case "fir/saturation" `Quick test_fir_saturation;
    Alcotest.test_case "fir/dc-gain" `Quick test_fir_dc_gain;
    Alcotest.test_case "fir/validation" `Quick test_fir_validation;
    QCheck_alcotest.to_alcotest prop_fir_linear;
    QCheck_alcotest.to_alcotest prop_fir_bytes_consistent;
    Alcotest.test_case "fir/coproc-direct" `Quick test_fir_coproc_direct;
  ]

let suite = suite @ fir_suite

(* {1 IDEA CBC mode} *)

let test_idea_cbc_ref () =
  let key = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let iv = [| 0x1111; 0x2222; 0x3333; 0x4444 |] in
  let plain = Rvi_harness.Workload.random_bytes ~seed:9 ~n:64 in
  let ct = Idea.cbc ~key ~decrypt:false ~iv plain in
  checkb "cbc differs from ecb" true
    (not (Bytes.equal ct (Idea.ecb ~key ~decrypt:false plain)));
  checkb "cbc roundtrip" true
    (Bytes.equal (Idea.cbc ~key ~decrypt:true ~iv ct) plain);
  (* Identical plaintext blocks produce different ciphertext blocks. *)
  let same = Bytes.make 32 '\x42' in
  let ct2 = Idea.cbc ~key ~decrypt:false ~iv same in
  checkb "chaining breaks repetition" true
    (not (Bytes.equal (Bytes.sub ct2 0 8) (Bytes.sub ct2 8 8)));
  (* And ECB famously leaks it. *)
  let ecb2 = Idea.ecb ~key ~decrypt:false same in
  checkb "ecb leaks repetition" true
    (Bytes.equal (Bytes.sub ecb2 0 8) (Bytes.sub ecb2 8 8))

let prop_idea_cbc_roundtrip =
  QCheck.Test.make ~name:"idea CBC roundtrip for random keys/ivs" ~count:30
    QCheck.(
      triple
        (array_of_size (Gen.return 8) (int_bound 0xFFFF))
        (array_of_size (Gen.return 4) (int_bound 0xFFFF))
        (int_range 1 12))
    (fun (key, iv, blocks) ->
      let plain = Rvi_harness.Workload.random_bytes ~seed:blocks ~n:(8 * blocks) in
      let ct = Idea.cbc ~key ~decrypt:false ~iv plain in
      Bytes.equal (Idea.cbc ~key ~decrypt:true ~iv ct) plain)

let test_idea_cbc_coproc_direct () =
  let key = Rvi_harness.Workload.idea_key ~seed:77 in
  let iv = [| 0xAAAA; 0xBBBB; 0xCCCC; 0xDDDD |] in
  let plain = Rvi_harness.Workload.idea_plaintext ~seed:77 ~bytes:1024 in
  let run mode expected =
    let result, read =
      run_direct ~clock_hz:24_000_000 ~divide:4 ~make:Rvi_coproc.Idea_coproc.create
        ~regions:
          [
            (0, Some plain, Bytes.length plain, Rvi_core.Mapped_object.In);
            (1, None, Bytes.length plain, Rvi_core.Mapped_object.Out);
          ]
        ~params:
          (Rvi_coproc.Idea_coproc.params_mode
             ~n_blocks:(Bytes.length plain / 8)
             ~mode ~key ~iv ())
        ~watchdog_ms:2000
    in
    checkb "ran" true (result = Ok ());
    check_bytes
      ("mode " ^ Rvi_coproc.Idea_coproc.mode_name mode)
      expected (read 1)
  in
  run Rvi_coproc.Idea_coproc.Cbc_encrypt (Idea.cbc ~key ~decrypt:false ~iv plain);
  let ct = Idea.cbc ~key ~decrypt:false ~iv plain in
  let result, read =
    run_direct ~clock_hz:24_000_000 ~divide:4 ~make:Rvi_coproc.Idea_coproc.create
      ~regions:
        [
          (0, Some ct, Bytes.length ct, Rvi_core.Mapped_object.In);
          (1, None, Bytes.length ct, Rvi_core.Mapped_object.Out);
        ]
      ~params:
        (Rvi_coproc.Idea_coproc.params_mode
           ~n_blocks:(Bytes.length ct / 8)
           ~mode:Rvi_coproc.Idea_coproc.Cbc_decrypt ~key ~iv ())
      ~watchdog_ms:2000
  in
  checkb "decrypt ran" true (result = Ok ());
  check_bytes "cbc decrypt recovers" plain (read 1)

let test_mode_codes () =
  List.iter
    (fun m ->
      checkb "roundtrip" true
        (Rvi_coproc.Idea_coproc.mode_of_code (Rvi_coproc.Idea_coproc.mode_code m)
        = Some m))
    Rvi_coproc.Idea_coproc.
      [ Ecb_encrypt; Ecb_decrypt; Cbc_encrypt; Cbc_decrypt ];
  checkb "unknown" true (Rvi_coproc.Idea_coproc.mode_of_code 9 = None)

let cbc_suite =
  [
    Alcotest.test_case "idea-cbc/reference" `Quick test_idea_cbc_ref;
    QCheck_alcotest.to_alcotest prop_idea_cbc_roundtrip;
    Alcotest.test_case "idea-cbc/coproc-direct" `Quick test_idea_cbc_coproc_direct;
    Alcotest.test_case "idea-cbc/mode-codes" `Quick test_mode_codes;
  ]

let suite = suite @ cbc_suite

(* {1 Arbiter} *)

let test_arbiter_basics () =
  let upstream = Cp_port.create () in
  let arb = Rvi_coproc.Arbiter.create ~upstream ~children:2 in
  checkb "distinct child ports" true
    (Rvi_coproc.Arbiter.child_port arb 0 != Rvi_coproc.Arbiter.child_port arb 1);
  Alcotest.check_raises "child range"
    (Invalid_argument "Arbiter.child_port: no such child") (fun () ->
      ignore (Rvi_coproc.Arbiter.child_port arb 2));
  Alcotest.check_raises "children range"
    (Invalid_argument "Arbiter.create: children out of [1, 4]") (fun () ->
      ignore (Rvi_coproc.Arbiter.create ~upstream ~children:5))

let test_arbiter_forwards_and_relocates () =
  (* Drive the arbiter open-loop for a few cycles: child 1's parameter read
     must appear upstream relocated into its slot; data reads keep their
     object ids; responses route back to the issuer only. *)
  let engine = Engine.create () in
  let clock = Clock.create engine ~name:"c" ~freq_hz:1_000_000 in
  let upstream = Cp_port.create () in
  let arb = Rvi_coproc.Arbiter.create ~upstream ~children:2 in
  Clock.add clock (Rvi_coproc.Arbiter.component arb);
  let p0 = Rvi_coproc.Arbiter.child_port arb 0 in
  let p1 = Rvi_coproc.Arbiter.child_port arb 1 in
  let step () =
    Clock.start clock;
    Engine.run_until engine
      (Simtime.add (Engine.now engine) (Simtime.of_us 1));
    Clock.stop clock
  in
  (* Child 1 pulses a parameter read. *)
  p1.Cp_port.cp_obj <- Cp_port.param_obj;
  p1.Cp_port.cp_addr <- 8;
  p1.Cp_port.cp_access <- true;
  step ();
  p1.Cp_port.cp_access <- false;
  step ();
  checkb "upstream pulse seen" true
    (upstream.Cp_port.cp_obj = Cp_port.param_obj);
  checki "relocated into child 1's slot"
    (8 + (4 * Rvi_coproc.Arbiter.slot_words))
    upstream.Cp_port.cp_addr;
  (* Response routes to child 1 only. *)
  upstream.Cp_port.cp_tlbhit <- true;
  upstream.Cp_port.cp_din <- 0x77;
  step ();
  upstream.Cp_port.cp_tlbhit <- false;
  checkb "child 1 got the hit" true p1.Cp_port.cp_tlbhit;
  checki "child 1 got the data" 0x77 p1.Cp_port.cp_din;
  checkb "child 0 did not" true (not p0.Cp_port.cp_tlbhit);
  let g = Rvi_coproc.Arbiter.grants arb in
  checki "one grant to child 1" 1 g.(1);
  checki "none to child 0" 0 g.(0)

let test_arbiter_fin_conjunction () =
  let engine = Engine.create () in
  let clock = Clock.create engine ~name:"c" ~freq_hz:1_000_000 in
  let upstream = Cp_port.create () in
  let arb = Rvi_coproc.Arbiter.create ~upstream ~children:2 in
  Clock.add clock (Rvi_coproc.Arbiter.component arb);
  let p0 = Rvi_coproc.Arbiter.child_port arb 0 in
  let p1 = Rvi_coproc.Arbiter.child_port arb 1 in
  let step () =
    Clock.start clock;
    Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us 1));
    Clock.stop clock
  in
  p0.Cp_port.cp_fin <- true;
  step ();
  checkb "one child finished is not enough" true (not upstream.Cp_port.cp_fin);
  p1.Cp_port.cp_fin <- true;
  step ();
  checkb "both finished raises CP_FIN" true upstream.Cp_port.cp_fin

let arbiter_suite =
  [
    Alcotest.test_case "arbiter/basics" `Quick test_arbiter_basics;
    Alcotest.test_case "arbiter/forward-relocate" `Quick
      test_arbiter_forwards_and_relocates;
    Alcotest.test_case "arbiter/fin-conjunction" `Quick test_arbiter_fin_conjunction;
  ]

let suite = suite @ arbiter_suite

(* {1 Chunking is wrong for stateful kernels}

   EXPERIMENTS.md claims the hand-chunked driver, fine for a stateless
   cipher, is *incorrect* for ADPCM because the predictor state crosses
   chunk boundaries. Pin the claim. *)

let test_chunked_adpcm_is_wrong () =
  let input = Rvi_harness.Workload.adpcm_stream ~seed:90 ~bytes:2048 in
  let engine = Engine.create () in
  let cost = Rvi_os.Cost_model.default ~cpu_freq_hz:133_000_000 in
  let kernel = Rvi_os.Kernel.create ~engine ~cost ~sdram_bytes:(1024 * 1024) () in
  let dpram = Rvi_mem.Dpram.create geom in
  let dport = Dport.create ~dpram in
  let coproc = Rvi_coproc.Adpcm_coproc.create (Rvi_coproc.Mem_port.Direct dport) in
  let clock = Clock.create engine ~name:"c" ~freq_hz:40_000_000 in
  Clock.add clock coproc.Rvi_coproc.Coproc.component;
  let in_buf = Rvi_os.Uspace.of_bytes kernel input in
  let out_buf = Rvi_os.Uspace.alloc kernel (4 * Bytes.length input) in
  let half = Bytes.length input / 2 in
  let chunk pos =
    ( [
        {
          Rvi_coproc.Normal_driver.region = 0;
          buf = Rvi_os.Uspace.sub in_buf ~pos ~len:half;
          dir = Rvi_core.Mapped_object.In;
        };
        {
          Rvi_coproc.Normal_driver.region = 1;
          buf = Rvi_os.Uspace.sub out_buf ~pos:(4 * pos) ~len:(4 * half);
          dir = Rvi_core.Mapped_object.Out;
        };
      ],
      [ half ] )
  in
  (match
     Rvi_coproc.Normal_driver.run_chunked ~kernel ~dpram
       ~ahb:Rvi_mem.Ahb.default ~clocks:[ clock ] ~dport ~coproc
       ~chunks:[ chunk 0; chunk half ] ()
   with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "chunked run failed: %s"
      (Rvi_coproc.Normal_driver.error_to_string e));
  let chunked = Rvi_os.Uspace.read kernel out_buf in
  let reference = Adpcm.decode input in
  checkb "first chunk matches (no state yet)" true
    (Bytes.equal (Bytes.sub chunked 0 (4 * half)) (Bytes.sub reference 0 (4 * half)));
  checkb "second chunk DIVERGES (predictor state was lost at the boundary)"
    true
    (not
       (Bytes.equal
          (Bytes.sub chunked (4 * half) (4 * half))
          (Bytes.sub reference (4 * half) (4 * half))))

let chunk_suite =
  [
    Alcotest.test_case "normal_driver/chunked-adpcm-wrong" `Quick
      test_chunked_adpcm_is_wrong;
  ]

let suite = suite @ chunk_suite
