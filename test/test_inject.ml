(* Unit tests for the fault-injection layer (rvi_inject) and for the
   recovery machinery it exercises: spec parsing, injector determinism,
   the second-execute-after-stall regression and the frame/TLB
   consistency property under random injection. *)

module Simtime = Rvi_sim.Simtime
module Stats = Rvi_sim.Stats
module Fault = Rvi_inject.Fault
module Spec = Rvi_inject.Spec
module Injector = Rvi_inject.Injector
module Config = Rvi_harness.Config
module Platform = Rvi_harness.Platform
module Calibration = Rvi_harness.Calibration
module Workload = Rvi_harness.Workload
module Api = Rvi_core.Api
module Vim = Rvi_core.Vim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Fault taxonomy} *)

let test_fault_names () =
  checki "eleven kinds" 11 (List.length Fault.all);
  List.iter
    (fun k ->
      (match Fault.of_name (Fault.name k) with
      | Some k' -> checkb "name round-trips" true (k = k')
      | None -> Alcotest.fail "name does not round-trip");
      checkb "describe non-empty" true (String.length (Fault.describe k) > 0))
    Fault.all;
  checkb "unknown name" true (Fault.of_name "cosmic-ray" = None)

(* {1 Spec parsing} *)

let test_spec_parse () =
  (match Spec.parse "ahb" with
  | Ok [ { Spec.kind = Fault.Ahb_error; rate } ] ->
    Alcotest.(check (float 1e-9))
      "default rate" (Spec.default_rate Fault.Ahb_error) rate
  | Ok _ -> Alcotest.fail "wrong rules"
  | Error m -> Alcotest.fail m);
  (match Spec.parse "dma:0.5" with
  | Ok [ { Spec.kind = Fault.Dma_error; rate } ] ->
    Alcotest.(check (float 1e-9)) "explicit rate" 0.5 rate
  | Ok _ -> Alcotest.fail "wrong rules"
  | Error m -> Alcotest.fail m);
  (match Spec.parse "all" with
  | Ok rules -> checkb "all expands to every kind" true (rules = Spec.all ())
  | Error m -> Alcotest.fail m);
  (* later rules override earlier ones *)
  (match Spec.parse "all,hang:0" with
  | Ok rules ->
    Alcotest.(check (float 1e-9)) "hang off" 0.0 (Spec.rate rules Fault.Coproc_hang);
    checkb "others still on" true (Spec.rate rules Fault.Ahb_error > 0.0)
  | Error m -> Alcotest.fail m);
  checkb "unknown kind rejected" true (Result.is_error (Spec.parse "bogus"));
  checkb "bad rate rejected" true (Result.is_error (Spec.parse "ahb:x"));
  checkb "range-checked" true (Result.is_error (Spec.parse "ahb:1.5"))

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Ok rules -> (
        match Spec.parse (Spec.to_string rules) with
        | Ok rules' -> checkb ("round trip " ^ s) true (rules = rules')
        | Error m -> Alcotest.fail m)
      | Error m -> Alcotest.fail m)
    [ "ahb"; "dma:0.25"; "all"; "all:0.5,hang:0"; "tlb,irq-lost:0.1" ]

(* {1 Injector determinism} *)

let fire_sequence ~seed ~spec n =
  let inj = Injector.create ~seed ~spec in
  List.init n (fun i ->
      let k = List.nth Fault.all (i mod List.length Fault.all) in
      (Injector.fire inj k, Injector.draw inj 97))

let test_injector_deterministic () =
  let spec = Spec.all ~factor:100.0 () in
  let a = fire_sequence ~seed:7 ~spec 256 in
  let b = fire_sequence ~seed:7 ~spec 256 in
  checkb "same seed, same schedule" true (a = b);
  let c = fire_sequence ~seed:8 ~spec 256 in
  checkb "different seed, different schedule" true (a <> c)

let test_zero_rate_consumes_no_prng () =
  (* Disabling one kind must not shift any other kind's stream: rate-0
     fires skip the PRNG entirely. *)
  let spec_on = Spec.all ~factor:100.0 () in
  let spec_off =
    List.map
      (fun r ->
        if r.Spec.kind = Fault.Coproc_hang then { r with Spec.rate = 0.0 }
        else r)
      spec_on
  in
  let seq spec =
    let inj = Injector.create ~seed:3 ~spec in
    List.init 300 (fun i ->
        if i mod 3 = 0 then ignore (Injector.fire inj Fault.Coproc_hang);
        Injector.fire inj Fault.Ahb_error)
  in
  checkb "ahb stream unshifted" true (seq spec_on = seq spec_off)

let test_one_shot_events () =
  (* A deterministic event fires exactly at its 1-based opportunity
     ordinal — even for a kind with no rate rule — and replaces that
     opportunity's draw, so the background rate streams are bit-identical
     with or without events armed. *)
  let spec = [ { Spec.kind = Fault.Ahb_error; rate = 0.3 } ] in
  let stream events =
    let inj = Injector.create ~seed:5 ~spec in
    Injector.set_events inj events;
    List.init 40 (fun _ ->
        (Injector.fire inj Fault.Coproc_hang, Injector.fire inj Fault.Ahb_error))
  in
  let plain = stream [] in
  let armed = stream [ (Fault.Coproc_hang, 3) ] in
  checkb "no hang without a rule or event" true
    (List.for_all (fun (h, _) -> not h) plain);
  List.iteri
    (fun i (h, _) -> checkb "hang fires at ordinal 3 only" (i = 2) h)
    armed;
  checkb "event consumes no prng: rate stream unshifted" true
    (List.map snd plain = List.map snd armed);
  let inj = Injector.create ~seed:5 ~spec in
  Injector.set_events inj [ (Fault.Irq_lost, 1); (Fault.Irq_lost, 4) ];
  checki "pending events armed" 2 (Injector.pending_events inj);
  ignore (Injector.fire inj Fault.Irq_lost);
  checki "consumed on firing" 1 (Injector.pending_events inj)

let test_injector_arming_and_counters () =
  let spec = [ { Spec.kind = Fault.Ahb_error; rate = 1.0 } ] in
  let inj = Injector.create ~seed:1 ~spec in
  let observed = ref 0 in
  Injector.set_observer inj (Some (fun _ -> incr observed));
  checkb "rate 1 always fires" true (Injector.fire inj Fault.Ahb_error);
  Injector.set_enabled inj false;
  checkb "disarmed never fires" false (Injector.fire inj Fault.Ahb_error);
  Injector.set_enabled inj true;
  checkb "re-armed fires again" true (Injector.fire inj Fault.Ahb_error);
  checki "injected counted" 2 (Injector.injected inj Fault.Ahb_error);
  checki "total" 2 (Injector.injected_total inj);
  checki "observer per injection" 2 !observed;
  checki "unruled kind never fires" 0
    (if Injector.fire inj Fault.Dma_error then 1 else 0)

(* {1 The platform under injection}

   Helpers mirroring test_vim's vecadd driver, parameterised by config. *)

let to_bytes words =
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri
    (fun i w ->
      for k = 0 to 3 do
        Bytes.set b ((4 * i) + k) (Char.chr ((w lsr (8 * k)) land 0xFF))
      done)
    words;
  b

let vecadd_setup p n =
  let a, b = Workload.vectors ~seed:5 ~n in
  let buf_a = Platform.alloc_bytes p (to_bytes a) in
  let buf_b = Platform.alloc_bytes p (to_bytes b) in
  let buf_c = Platform.alloc p (4 * n) in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf:buf_a
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:1 ~buf:buf_b
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:2 ~buf:buf_c
       ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  let expected = to_bytes (Rvi_coproc.Vecadd.reference ~a ~b) in
  (buf_c, expected)

let injected_platform ?(translation = Rvi_core.Translation_mode.Paper_objects)
    ~spec ~seed ~watchdog () =
  let inj = Injector.create ~seed ~spec in
  let cfg =
    {
      (Config.default ()) with
      Config.injector = Some inj;
      watchdog;
      translation;
    }
  in
  let p =
    Platform.create ~app_name:"injtest" cfg
      ~bitstream:Calibration.vecadd_bitstream
      ~make:(Rvi_harness.Jobs.make_virtual Rvi_harness.Jobs.Vecadd)
  in
  (p, inj)

(* Satellite regression: a Hardware_stall must leave the VIM reusable —
   the abort path releases every frame, clears the TLB and resets the
   IMU, so a second FPGA_EXECUTE on the same platform succeeds. *)
let test_second_execute_after_stall () =
  let p, inj =
    injected_platform
      ~spec:[ { Spec.kind = Fault.Coproc_hang; rate = 1.0 } ]
      ~seed:1 ~watchdog:(Simtime.of_ms 1) ()
  in
  let n = 256 in
  let buf_c, expected = vecadd_setup p n in
  (match Api.fpga_execute p.Platform.api ~params:[ n ] with
  | Error Rvi_os.Syscall.EIO -> ()
  | Ok () -> Alcotest.fail "hung execution unexpectedly succeeded"
  | Error _ -> Alcotest.fail "wrong errno for a stall");
  checkb "watchdog fired" true
    (Stats.get (Vim.stats p.Platform.vim) "watchdog_fires" > 0);
  (* the abort left nothing behind *)
  checki "no frames held" 0
    (Rvi_core.Frame_table.held_count (Vim.frame_table p.Platform.vim));
  checki "TLB empty" 0
    (Rvi_core.Tlb.valid_count (Rvi_core.Imu.tlb p.Platform.imu));
  checkb "IMU unwedged" false (Rvi_core.Imu.hung p.Platform.imu);
  (match Vim.consistency p.Platform.vim with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("inconsistent after abort: " ^ m));
  (* fault gone: the same platform must work again *)
  Injector.set_enabled inj false;
  (match Api.fpga_execute p.Platform.api ~params:[ n ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "second execute failed after recovery");
  checkb "second run produces the right answer" true
    (Bytes.equal (Platform.read p buf_c) expected)

(* In-VIM recovery: exhausted copy retries surface as a transient bus
   error, and moderate rates recover without any caller involvement. *)
let test_copy_retry_exhaustion () =
  let p, _ =
    injected_platform
      ~spec:[ { Spec.kind = Fault.Ahb_error; rate = 1.0 } ]
      ~seed:2 ~watchdog:(Simtime.of_ms 1) ()
  in
  let _ = vecadd_setup p 256 in
  (match Api.fpga_execute p.Platform.api ~params:[ 256 ] with
  | Error Rvi_os.Syscall.EIO -> ()
  | _ -> Alcotest.fail "permanent bus errors should fail the execution");
  checkb "retries were attempted" true
    (Stats.get (Vim.stats p.Platform.vim) "copy_retries" > 0);
  checkb "retries exhausted" true
    (Stats.get (Vim.stats p.Platform.vim) "copy_retries_exhausted" > 0);
  match Vim.consistency p.Platform.vim with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("inconsistent after bus-error abort: " ^ m)

(* Satellite property: whatever a seeded injection run does, in either
   translation mode, the frame table, the TLB hierarchy, the page table and
   the dirty ledger stay mutually consistent, and no outcome is an
   exception. *)
let prop_consistency_under_injection =
  let mode =
    QCheck.make ~print:Rvi_core.Translation_mode.name
      (QCheck.Gen.oneofl Rvi_core.Translation_mode.all)
  in
  QCheck.Test.make ~name:"frame/TLB consistency after any seeded injection"
    ~count:25
    QCheck.(pair mode (int_bound 1_000_000))
    (fun (translation, seed) ->
      let p, _ =
        injected_platform ~translation
          ~spec:(Spec.all ~factor:50.0 ())
          ~seed ~watchdog:(Simtime.of_ms 1) ()
      in
      let _ = vecadd_setup p 512 in
      ignore (Api.fpga_execute p.Platform.api ~params:[ 512 ]);
      match Vim.consistency p.Platform.vim with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* Satellite: every error renders distinctly and non-emptily — the
   degradation reports lean on these strings. *)
let test_error_strings_exhaustive () =
  let vim_errors =
    [
      Vim.Unmapped_object 3;
      Vim.Object_overflow { obj_id = 1; vpn = 9 };
      Vim.No_frames;
      Vim.Too_many_params { given = 600; capacity = 512 };
      Vim.Hardware_stall;
      Vim.Nothing_loaded;
      Vim.Bus_error;
      Vim.Dma_failed;
      Vim.Parity_error { frame = 4 };
      Vim.Sva_fault { vpn = 7 };
      Vim.Walk_failed { vpn = 7 };
    ]
  in
  let strings = List.map Vim.error_to_string vim_errors in
  List.iter
    (fun s -> checkb "vim error non-empty" true (String.length s > 0))
    strings;
  checki "vim errors distinct"
    (List.length strings)
    (List.length (List.sort_uniq compare strings));
  let nd_errors =
    Rvi_coproc.Normal_driver.
      [
        Exceeds_memory { required = 9; available = 1 };
        Access_error { region = 2; addr = 77 };
        Hardware_stall;
      ]
  in
  let nd_strings =
    List.map Rvi_coproc.Normal_driver.error_to_string nd_errors
  in
  List.iter
    (fun s -> checkb "driver error non-empty" true (String.length s > 0))
    nd_strings;
  checki "driver errors distinct"
    (List.length nd_strings)
    (List.length (List.sort_uniq compare nd_strings))

let test_classify () =
  List.iter
    (fun (e, sev) ->
      checkb (Vim.error_to_string e) true (Vim.classify e = sev))
    [
      (Vim.Hardware_stall, Vim.Transient);
      (Vim.Bus_error, Vim.Transient);
      (Vim.Dma_failed, Vim.Transient);
      (Vim.Parity_error { frame = 0 }, Vim.Transient);
      (Vim.Walk_failed { vpn = 0 }, Vim.Transient);
      (Vim.Unmapped_object 0, Vim.Fatal);
      (Vim.No_frames, Vim.Fatal);
      (Vim.Nothing_loaded, Vim.Fatal);
      (Vim.Object_overflow { obj_id = 0; vpn = 0 }, Vim.Fatal);
      (Vim.Too_many_params { given = 1; capacity = 0 }, Vim.Fatal);
      (Vim.Sva_fault { vpn = 3 }, Vim.Fatal);
    ]

(* {1 Campaign determinism (the faults front-end)} *)

let outcome_tags results =
  List.map
    (fun r ->
      ( r.Rvi_harness.Faults.seed,
        Rvi_harness.Faults.outcome_name r.Rvi_harness.Faults.outcome,
        r.Rvi_harness.Faults.injected ))
    results

let test_campaign_deterministic () =
  let run () = Rvi_harness.Faults.campaign ~runs:12 ~seed:99 () in
  let a = run () and b = run () in
  checkb "same seed replays identically" true
    (outcome_tags a = outcome_tags b);
  let s = Rvi_harness.Faults.summarize a in
  checki "every run classified" 12
    Rvi_harness.Faults.(s.clean + s.recovered + s.degraded + s.failed + s.crashed);
  checki "no crashes" 0 s.Rvi_harness.Faults.crashed;
  checkb "campaign passes" true (Rvi_harness.Faults.passed s)

(* {1 Draw logs and golden runs}

   A run's seed reaches its trajectory only through the injector's
   Bernoulli draws, so a campaign takes the result of a run whose draws
   over a zero-injection run's log all miss from that run instead of
   simulating it. *)

module Faults = Rvi_harness.Faults
module Prng = Rvi_sim.Prng

(* [quiet] over the draws one injector logged answers, for any seed,
   whether an injector with that seed misses every one of the same
   opportunities. Rates are drawn per kind, 0 included, so unarmed kinds
   are interleaved with armed ones. *)
let prop_quiet_replays_fire =
  let rates = QCheck.Gen.oneofl [ 0.0; 0.002; 0.01; 0.05 ] in
  QCheck.Test.make
    ~name:"Injector.quiet answers whether fire would hit at the logged draws"
    ~count:300
    QCheck.(
      make
        Gen.(
          quad (int_bound 1_000_000) (int_bound 1_000_000)
            (list_repeat Fault.n_kinds rates)
            (list_size (int_range 0 200) (int_bound (Fault.n_kinds - 1)))))
    (fun (seed_a, seed_b, rates, ks) ->
      let spec =
        List.map2 (fun kind rate -> { Spec.kind; rate }) Fault.all rates
      in
      let kinds = List.map (List.nth Fault.all) ks in
      let misses seed =
        let inj = Injector.create ~seed ~spec in
        List.for_all (fun k -> not (Injector.fire inj k)) kinds
      in
      let log = Injector.create_log () in
      let inj = Injector.create ~seed:seed_a ~spec in
      Injector.set_log inj (Some log);
      List.iter (fun k -> ignore (Injector.fire inj k)) kinds;
      let thresholds = Injector.thresholds spec in
      Injector.quiet ~seed:seed_a thresholds log = (Injector.injected_total inj = 0)
      && Injector.quiet ~seed:seed_b thresholds log = misses seed_b)

let translations =
  [ Rvi_core.Translation_mode.Paper_objects; Rvi_core.Translation_mode.Iommu_sva ]

(* The oracle: every run of a campaign simulated on its own through
   [Faults.run_one], with the run seeds a campaign derives. Each run logs
   its draws; the first zero-injection run of each workload keeps its
   log. *)
let live_campaign ~translation ~spec ~runs ~seed =
  let master = Prng.create ~seed in
  let seeds = Array.init runs (fun _ -> Prng.next master land 0x3FFF_FFFF) in
  let apps = Faults.workloads ~seed in
  let pool = Platform.Pool.create () in
  let log = Injector.create_log () in
  let golden = Array.make (Array.length apps) None in
  let live =
    List.init runs (fun i ->
        let w = i mod Array.length apps in
        let r =
          Faults.run_one ~pool ~translation ~log ~spec
            ~recovery:Vim.default_recovery ~watchdog:Faults.default_watchdog
            ~exec_retries:2 ~seed:seeds.(i) apps.(w)
        in
        if r.Faults.injected = 0 && Option.is_none golden.(w) then
          golden.(w) <- Some (Injector.copy_log log);
        { r with Faults.index = i })
  in
  (live, seeds, golden)

(* [quiet ~seed] over the golden log of a run's workload, against
   whether the run, simulated live, injected nothing: [Some (quiet,
   clean)] per run whose workload has a golden run. *)
let quiet_vs_live ~spec (live, seeds, golden) =
  let thresholds = Injector.thresholds spec in
  List.filter_map
    (fun (r : Faults.run_result) ->
      Option.map
        (fun log ->
          ( Injector.quiet ~seed:seeds.(r.Faults.index) thresholds log,
            r.Faults.injected = 0 ))
        golden.(r.Faults.index mod Array.length golden))
    live

let prop_campaign_equals_live_runs =
  QCheck.Test.make
    ~name:"Faults.campaign equals live Faults.run_one runs, field for field"
    ~count:10
    QCheck.(
      quad (int_bound 100_000) (int_range 4 40) bool
        (make ~print:string_of_float (Gen.oneofl [ 0.0; 0.5; 1.0; 4.0 ])))
    (fun (seed, runs, sva, factor) ->
      let translation = List.nth translations (Bool.to_int sva) in
      let spec = Spec.all ~factor () in
      let oracle = live_campaign ~translation ~spec ~runs ~seed in
      let live, _, _ = oracle in
      List.for_all
        (fun jobs ->
          Faults.campaign ~spec ~translation ~jobs ~runs ~seed () = live)
        [ 1; 2 ]
      && List.for_all (fun (quiet, clean) -> quiet = clean)
           (quiet_vs_live ~spec oracle))

(* The property's quiet/clean check, on campaigns where both answers
   occur: a quiet run that would inject and a loud run that would not
   each fail it. *)
let check_quiet_iff_clean name ~translation ~spec ~runs =
  let pairs =
    quiet_vs_live ~spec (live_campaign ~translation ~spec ~runs ~seed:42)
  in
  let count p = List.length (List.filter p pairs) in
  checki (name ^ ": quiet runs that injected") 0
    (count (fun (q, c) -> q && not c));
  checki (name ^ ": loud runs that injected nothing") 0
    (count (fun (q, c) -> (not q) && c));
  checkb (name ^ ": both answers occur") true
    (count fst > 0 && count (fun (q, _) -> not q) > 0)

let test_quiet_iff_no_injection () =
  List.iter
    (fun translation ->
      check_quiet_iff_clean
        (Rvi_core.Translation_mode.name translation)
        ~translation ~spec:(Spec.all ()) ~runs:40)
    translations

(* One kind armed at a time, at a rate where some runs inject it and
   some do not, so a scan that skips any one kind's draws calls a run
   quiet that injects. The DMA engine is not the campaign's copy engine,
   so DMA faults have no opportunity; the TLB-corruption site is
   paper-mode only and the walker's sites SVA-only. *)
let test_quiet_reads_every_kind () =
  let paper = Rvi_core.Translation_mode.Paper_objects
  and sva = Rvi_core.Translation_mode.Iommu_sva in
  List.iter
    (fun (kind, factor, translation) ->
      let spec = [ { Spec.kind; rate = Spec.default_rate kind *. factor } ] in
      check_quiet_iff_clean (Fault.name kind) ~translation ~spec ~runs:12)
    [
      (Fault.Dpram_flip, 64.0, paper);
      (Fault.Ahb_error, 4.0, paper);
      (Fault.Tlb_corrupt, 4.0, paper);
      (Fault.Coproc_hang, 64.0, paper);
      (Fault.Coproc_wrong, 64.0, paper);
      (Fault.Irq_lost, 4.0, paper);
      (Fault.Irq_spurious, 4.0, paper);
      (Fault.Ptw_error, 4.0, sva);
      (Fault.L2_corrupt, 4.0, sva);
      (Fault.Walker_hang, 1024.0, sva);
    ]

(* Elision happens: with no fault armed every run after each workload's
   first is quiet, so a warm 40-run campaign less a 20-run one is 20
   elided runs, each allocating a small fraction of a live run. *)
let test_elided_run_allocation () =
  let spec = Spec.all ~factor:0.0 () in
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let pass runs () = ignore (Faults.campaign ~spec ~runs ~seed:42 ()) in
  pass 20 ();
  let w20 = minor_words (pass 20) in
  let w40 = minor_words (pass 40) in
  let per_elided = (w40 -. w20) /. 20. in
  let apps = Faults.workloads ~seed:42 in
  let pool = Platform.Pool.create () in
  let live () =
    Array.iter
      (fun app ->
        ignore
          (Faults.run_one ~pool ~spec ~recovery:Vim.default_recovery
             ~watchdog:Faults.default_watchdog ~exec_retries:2 ~seed:1 app))
      apps
  in
  live ();
  let per_live = minor_words live /. float_of_int (Array.length apps) in
  checkb
    (Printf.sprintf
       "%.0f minor words per elided run, under a tenth of a live run's %.0f"
       per_elided per_live)
    true
    (per_elided < per_live /. 10.)

let suite =
  [
    Alcotest.test_case "fault/names" `Quick test_fault_names;
    Alcotest.test_case "spec/parse" `Quick test_spec_parse;
    Alcotest.test_case "spec/roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "injector/deterministic" `Quick
      test_injector_deterministic;
    Alcotest.test_case "injector/zero-rate-no-prng" `Quick
      test_zero_rate_consumes_no_prng;
    Alcotest.test_case "injector/arming-counters" `Quick
      test_injector_arming_and_counters;
    Alcotest.test_case "injector/one-shot-events" `Quick test_one_shot_events;
    Alcotest.test_case "recovery/second-execute-after-stall" `Quick
      test_second_execute_after_stall;
    Alcotest.test_case "recovery/copy-retry-exhaustion" `Quick
      test_copy_retry_exhaustion;
    QCheck_alcotest.to_alcotest prop_consistency_under_injection;
    Alcotest.test_case "errors/exhaustive-strings" `Quick
      test_error_strings_exhaustive;
    Alcotest.test_case "errors/classify" `Quick test_classify;
    Alcotest.test_case "campaign/deterministic" `Slow
      test_campaign_deterministic;
    QCheck_alcotest.to_alcotest prop_quiet_replays_fire;
    QCheck_alcotest.to_alcotest prop_campaign_equals_live_runs;
    Alcotest.test_case "campaign/quiet-iff-no-injection" `Quick
      test_quiet_iff_no_injection;
    Alcotest.test_case "campaign/quiet-reads-every-kind" `Quick
      test_quiet_reads_every_kind;
    Alcotest.test_case "campaign/elided-run-allocation" `Quick
      test_elided_run_allocation;
  ]
