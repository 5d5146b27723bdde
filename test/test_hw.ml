(* Unit and property tests for the hardware-modelling helpers (rvi_hw). *)

module Bits = Rvi_hw.Bits
module Reg = Rvi_hw.Reg
module Fsm = Rvi_hw.Fsm
module Wave = Rvi_hw.Wave

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Bits} *)

let test_bits_make () =
  checki "truncation" 0x3 (Bits.to_int (Bits.make ~width:2 0xF));
  checki "width" 12 (Bits.width (Bits.make ~width:12 0));
  checki "max" 255 (Bits.max_int ~width:8);
  checki "ones" 0x1F (Bits.to_int (Bits.ones ~width:5));
  Alcotest.check_raises "width 0" (Invalid_argument "Bits: width out of [1, 62]")
    (fun () -> ignore (Bits.make ~width:0 1));
  Alcotest.check_raises "width 63" (Invalid_argument "Bits: width out of [1, 62]")
    (fun () -> ignore (Bits.make ~width:63 1));
  Alcotest.check_raises "negative" (Invalid_argument "Bits.make: negative value")
    (fun () -> ignore (Bits.make ~width:4 (-1)))

let test_bits_arith () =
  let b8 = Bits.make ~width:8 in
  checki "add wrap" 4 (Bits.to_int (Bits.add (b8 250) (b8 10)));
  checki "sub wrap" 246 (Bits.to_int (Bits.sub (b8 0) (b8 10)));
  checki "succ wrap" 0 (Bits.to_int (Bits.succ (b8 255)));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bits.add: width mismatch (8 vs 4)") (fun () ->
      ignore (Bits.add (b8 1) (Bits.make ~width:4 1)))

let test_bits_logic () =
  let b = Bits.make ~width:8 in
  checki "and" 0x0C (Bits.to_int (Bits.logand (b 0x3C) (b 0x0F)));
  checki "or" 0x3F (Bits.to_int (Bits.logor (b 0x3C) (b 0x0F)));
  checki "xor" 0x33 (Bits.to_int (Bits.logxor (b 0x3C) (b 0x0F)));
  checki "not" 0xC3 (Bits.to_int (Bits.lognot (b 0x3C)))

let test_bits_shift () =
  let b = Bits.make ~width:8 0x81 in
  checki "shl" 0x04 (Bits.to_int (Bits.shift_left b 2));
  checki "shr" 0x20 (Bits.to_int (Bits.shift_right b 2));
  checki "shl overflow" 0 (Bits.to_int (Bits.shift_left b 8));
  checki "shr overflow" 0 (Bits.to_int (Bits.shift_right b 9))

let test_bits_slice () =
  let v = Bits.make ~width:12 0xABC in
  checki "slice mid" 0xB (Bits.to_int (Bits.slice ~hi:7 ~lo:4 v));
  checki "slice width" 4 (Bits.width (Bits.slice ~hi:7 ~lo:4 v));
  checki "concat" 0xABC
    (Bits.to_int (Bits.concat (Bits.make ~width:4 0xA) (Bits.make ~width:8 0xBC)));
  checkb "bit 2" true (Bits.bit v 2);
  checkb "bit 0" false (Bits.bit v 0);
  checki "set_bit" 0xABD (Bits.to_int (Bits.set_bit v 0 true));
  checki "clear_bit" 0xAB8 (Bits.to_int (Bits.set_bit v 2 false))

let test_bits_pp () =
  let s pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "hex" "12'h0a3" (s Bits.pp (Bits.make ~width:12 0xA3));
  Alcotest.(check string) "bin" "4'b1010" (s Bits.pp_bin (Bits.make ~width:4 0xA))

(* Substring search without depending on Str. *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let gen_bits width =
  QCheck.map
    (fun v -> Bits.make ~width (abs v land Bits.max_int ~width))
    QCheck.int

let prop_add_comm =
  QCheck.Test.make ~name:"bits add commutative (width 16)" ~count:300
    (QCheck.pair (gen_bits 16) (gen_bits 16))
    (fun (a, b) -> Bits.equal (Bits.add a b) (Bits.add b a))

let prop_add_sub =
  QCheck.Test.make ~name:"bits (a+b)-b = a" ~count:300
    (QCheck.pair (gen_bits 16) (gen_bits 16))
    (fun (a, b) -> Bits.equal (Bits.sub (Bits.add a b) b) a)

let prop_not_involutive =
  QCheck.Test.make ~name:"bits lognot involutive" ~count:300 (gen_bits 20)
    (fun a -> Bits.equal (Bits.lognot (Bits.lognot a)) a)

let prop_xor_self =
  QCheck.Test.make ~name:"bits a xor a = 0" ~count:300 (gen_bits 24) (fun a ->
      Bits.to_int (Bits.logxor a a) = 0)

let prop_slice_concat =
  QCheck.Test.make ~name:"bits concat . slice = id" ~count:300 (gen_bits 24)
    (fun v ->
      let hi = Bits.slice ~hi:23 ~lo:12 v in
      let lo = Bits.slice ~hi:11 ~lo:0 v in
      Bits.equal (Bits.concat hi lo) v)

(* {1 Reg} *)

let test_reg () =
  let r = Reg.create 1 in
  checki "initial" 1 (Reg.get r);
  Reg.set r 7;
  checki "not visible before commit" 1 (Reg.get r);
  checki "peek" 7 (Reg.peek_next r);
  Reg.commit r;
  checki "after commit" 7 (Reg.get r);
  Reg.set r 8;
  Reg.set r 9;
  Reg.commit r;
  checki "last write wins" 9 (Reg.get r);
  Reg.reset r 0;
  checki "reset cur" 0 (Reg.get r);
  checki "reset next" 0 (Reg.peek_next r)

(* {1 Fsm} *)

type st = Idle | Count | Fired

module M = Fsm.Make (struct
  type t = st
end)

(* A countdown machine in the style of the IMU and the coprocessors: an
   immediate state plus a payload register ([left]) that the compute
   phase reads before it writes. *)
type counter = { fsm : M.t; mutable left : int; mutable fired : int }

let counter_compute c =
  match M.state c.fsm with
  | Idle -> ()
  | Count when c.left > 0 -> c.left <- c.left - 1
  | Count ->
    c.fired <- c.fired + 1;
    M.goto c.fsm Fired
  | Fired -> M.goto c.fsm Idle

let counter_edge c =
  counter_compute c;
  M.commit c.fsm

let test_fsm () =
  let m = M.create Idle in
  checkb "init" true (M.state m = Idle);
  M.goto m Count;
  checkb "pre-commit" true (M.state m = Idle);
  M.commit m;
  checkb "post-commit" true (M.state m = Count);
  M.goto m Fired;
  M.stay m;
  M.commit m;
  checkb "stay undoes the goto" true (M.state m = Count);
  M.commit m;
  checkb "a commit with no goto keeps the state" true (M.state m = Count);
  M.goto m Fired;
  M.reset m Idle;
  checkb "reset sets the committed state" true (M.state m = Idle);
  M.commit m;
  checkb "reset sets the pending state" true (M.state m = Idle);
  (* Context save mid-countdown, then restore: the payload register
     travels with the state, so the restored machine fires on the same
     edge as the uninterrupted one. *)
  let c = { fsm = M.create Idle; left = 0; fired = 0 } in
  c.left <- 5;
  M.reset c.fsm Count;
  counter_edge c;
  counter_edge c;
  let saved_state = M.state c.fsm and saved_left = c.left in
  checki "payload mid-countdown" 3 saved_left;
  let edges_to_fire c =
    let n = ref 0 in
    while c.fired = 0 do
      counter_edge c;
      incr n
    done;
    !n
  in
  let uninterrupted = edges_to_fire c in
  let r = { fsm = M.create Idle; left = 0; fired = 0 } in
  M.reset r.fsm saved_state;
  r.left <- saved_left;
  checki "restored machine fires on the same edge" uninterrupted
    (edges_to_fire r);
  checkb "then leaves through Fired" true (M.state r.fsm = Fired);
  (* Transitions store an immediate: no allocation per edge. *)
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    M.goto m (if i land 1 = 0 then Count else Fired);
    M.commit m
  done;
  checkb "10k transitions allocate nothing" true (Gc.minor_words () -. w0 < 8.)

(* {1 Wave} *)

let test_wave_capture () =
  let w = Wave.create () in
  let v = ref 0 in
  Wave.add_signal w ~name:"sig" ~width:4 (fun () -> !v);
  for i = 0 to 5 do
    v := i;
    Wave.sample w
  done;
  checki "length" 6 (Wave.length w);
  Alcotest.(check (array int)) "values" [| 0; 1; 2; 3; 4; 5 |] (Wave.values w "sig");
  Alcotest.check_raises "unknown signal" Not_found (fun () ->
      ignore (Wave.values w "nope"))

let test_wave_width_mask () =
  let w = Wave.create () in
  Wave.add_signal w ~name:"s" ~width:3 (fun () -> 0xFF);
  Wave.sample w;
  Alcotest.(check (array int)) "masked to width" [| 7 |] (Wave.values w "s")

let test_wave_ascii () =
  let w = Wave.create () in
  let bitv = ref 0 and busv = ref 0 in
  Wave.add_signal w ~name:"bit" ~width:1 (fun () -> !bitv);
  Wave.add_signal w ~name:"bus" ~width:8 (fun () -> !busv);
  List.iter
    (fun (b, v) ->
      bitv := b;
      busv := v;
      Wave.sample w)
    [ (0, 0); (1, 5); (1, 5); (0, 9) ];
  let art = Wave.render_ascii w in
  checkb "has rising edge" true (String.contains art '/');
  checkb "has falling edge" true (String.contains art '\\');
  checkb "shows bus value 5" true (contains_sub art "|5")

let test_wave_vcd () =
  let w = Wave.create () in
  let v = ref 0 in
  Wave.add_signal w ~name:"x" ~width:2 (fun () -> !v);
  Wave.sample w;
  v := 3;
  Wave.sample w;
  let vcd = Wave.to_vcd ~timescale_ps:500 w in
  checkb "timescale" true (contains_sub vcd "$timescale 500 ps $end");
  checkb "var decl" true (contains_sub vcd "$var wire 2");
  checkb "timestamp" true (contains_sub vcd "#500");
  checkb "value change" true (contains_sub vcd "b11 ")

let suite =
  [
    Alcotest.test_case "bits/make" `Quick test_bits_make;
    Alcotest.test_case "bits/arith" `Quick test_bits_arith;
    Alcotest.test_case "bits/logic" `Quick test_bits_logic;
    Alcotest.test_case "bits/shift" `Quick test_bits_shift;
    Alcotest.test_case "bits/slice-concat" `Quick test_bits_slice;
    Alcotest.test_case "bits/pp" `Quick test_bits_pp;
    QCheck_alcotest.to_alcotest prop_add_comm;
    QCheck_alcotest.to_alcotest prop_add_sub;
    QCheck_alcotest.to_alcotest prop_not_involutive;
    QCheck_alcotest.to_alcotest prop_xor_self;
    QCheck_alcotest.to_alcotest prop_slice_concat;
    Alcotest.test_case "reg/two-phase" `Quick test_reg;
    Alcotest.test_case "fsm/two-phase-immediate" `Quick test_fsm;
    Alcotest.test_case "wave/capture" `Quick test_wave_capture;
    Alcotest.test_case "wave/width-mask" `Quick test_wave_width_mask;
    Alcotest.test_case "wave/ascii" `Quick test_wave_ascii;
    Alcotest.test_case "wave/vcd" `Quick test_wave_vcd;
  ]
