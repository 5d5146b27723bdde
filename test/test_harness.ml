(* Integration tests: the full virtualised stack end to end, the syscall
   API's failure modes, calibration pins, and the experiment drivers on
   reduced workloads. *)

module Simtime = Rvi_sim.Simtime
module Config = Rvi_harness.Config
module Runner = Rvi_harness.Runner
module Report = Rvi_harness.Report
module Workload = Rvi_harness.Workload
module Platform = Rvi_harness.Platform
module Calibration = Rvi_harness.Calibration
module Experiments = Rvi_harness.Experiments
module Api = Rvi_core.Api

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let cfg () = Config.default ()

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* {1 Calibration} *)

let test_calibration_pins () =
  List.iter
    (fun p ->
      let rel =
        abs_float (p.Calibration.computed -. p.Calibration.expected)
        /. p.Calibration.expected
      in
      if rel > p.Calibration.tolerance then
        Alcotest.failf "%s: expected %.3f, computed %.3f (rel err %.3f)"
          p.Calibration.name p.Calibration.expected p.Calibration.computed rel)
    (Calibration.check ())

(* {1 Workloads} *)

let test_workloads_deterministic () =
  checkb "adpcm" true
    (Bytes.equal
       (Workload.adpcm_stream ~seed:1 ~bytes:256)
       (Workload.adpcm_stream ~seed:1 ~bytes:256));
  checkb "different seeds differ" true
    (not
       (Bytes.equal
          (Workload.adpcm_stream ~seed:1 ~bytes:256)
          (Workload.adpcm_stream ~seed:2 ~bytes:256)));
  checki "idea key words" 8 (Array.length (Workload.idea_key ~seed:1));
  checki "requested size" 512 (Bytes.length (Workload.idea_plaintext ~seed:1 ~bytes:512));
  Alcotest.check_raises "idea size multiple of 8"
    (Invalid_argument "Workload.idea_plaintext: need a multiple of 8 bytes")
    (fun () -> ignore (Workload.idea_plaintext ~seed:1 ~bytes:100))

(* {1 End-to-end correctness through the whole stack} *)

let test_vecadd_end_to_end () =
  (* 3 x 8 KB of objects against 16 KB of dual-port memory: must fault. *)
  let a, b = Workload.vectors ~seed:11 ~n:2000 in
  let row = Runner.vecadd_vim (cfg ()) ~a ~b in
  checkb "measured and verified" true (Report.ok row);
  checkb "working set exceeded the memory" true (row.Report.faults > 0)

let test_adpcm_end_to_end_fits () =
  (* 2 KB input: everything fits, so the paper says no page faults occur. *)
  let input = Workload.adpcm_stream ~seed:12 ~bytes:2048 in
  let row = Runner.adpcm_vim (cfg ()) ~input in
  checkb "verified" true (Report.ok row);
  checki "no faults when the data fits" 0 row.Report.faults

let test_adpcm_end_to_end_faults () =
  let input = Workload.adpcm_stream ~seed:13 ~bytes:4096 in
  let row = Runner.adpcm_vim (cfg ()) ~input in
  checkb "verified" true (Report.ok row);
  checkb "faults beyond 2 KB (paper §4.1)" true (row.Report.faults > 0);
  checkb "write-backs happened" true (row.Report.writebacks > 0)

let test_idea_end_to_end () =
  let key = Workload.idea_key ~seed:14 in
  let input = Workload.idea_plaintext ~seed:14 ~bytes:4096 in
  let row = Runner.idea_vim (cfg ()) ~key ~input in
  checkb "verified" true (Report.ok row);
  let dec = Runner.idea_vim ~decrypt:true (cfg ()) ~key ~input in
  checkb "decrypt verified" true (Report.ok dec)

let test_idea_normal_vs_vim () =
  let key = Workload.idea_key ~seed:15 in
  let small = Workload.idea_plaintext ~seed:15 ~bytes:4096 in
  let nrm = Runner.idea_normal (cfg ()) ~key ~input:small in
  let vim = Runner.idea_vim (cfg ()) ~key ~input:small in
  checkb "normal verified" true (Report.ok nrm);
  checkb "normal is faster at small sizes" true
    Simtime.(nrm.Report.total < vim.Report.total);
  let big = Workload.idea_plaintext ~seed:15 ~bytes:(16 * 1024) in
  let nrm_big = Runner.idea_normal (cfg ()) ~key ~input:big in
  checkb "normal cannot exceed the memory" true
    (nrm_big.Report.outcome = Report.Exceeds_memory);
  let vim_big = Runner.idea_vim (cfg ()) ~key ~input:big in
  checkb "vim can" true (Report.ok vim_big)

let test_sw_baselines () =
  let input = Workload.adpcm_stream ~seed:16 ~bytes:2048 in
  let sw = Runner.adpcm_sw (cfg ()) ~input in
  checkb "sw verified" true (Report.ok sw);
  checkb "all time is application software" true
    (Simtime.equal sw.Report.total sw.Report.sw_app)

(* The headline property: for random sizes, seeds, policies and devices,
   the coprocessor output through the full virtualised stack is bit-exact
   against the software reference. *)
let prop_stack_bit_exact =
  QCheck.Test.make ~name:"full stack bit-exact for random configurations"
    ~count:12
    QCheck.(
      quad (int_range 1 48) (int_bound 1000) (int_bound 3) (int_bound 2))
    (fun (kb8, seed, policy_idx, device_idx) ->
      let policy = List.nth Rvi_core.Policy.all_names policy_idx in
      let device = List.nth Rvi_fpga.Device.all device_idx in
      let cfg = Config.with_policy { (cfg ()) with Config.device; seed } policy in
      let bytes = 128 * kb8 in
      let input = Workload.adpcm_stream ~seed ~bytes in
      let row = Runner.adpcm_vim cfg ~input in
      Report.ok row)

let prop_stack_idea_bit_exact =
  QCheck.Test.make ~name:"full IDEA stack bit-exact for random keys and sizes"
    ~count:8
    QCheck.(pair (int_range 1 12) (int_bound 1000))
    (fun (kblocks, seed) ->
      let key = Workload.idea_key ~seed in
      let input = Workload.idea_plaintext ~seed ~bytes:(256 * kblocks) in
      let row = Runner.idea_vim (cfg ()) ~key ~input in
      Report.ok row)

(* {1 Re-execution: the coprocessor "should be ready and waiting for new
   execution, if another FPGA_EXECUTE call appears" (§3.3)} *)

let test_reexecution () =
  let p =
    Platform.create ~app_name:"re" (cfg ())
      ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let n = 100 in
  let to_bytes words =
    let b = Bytes.create (4 * Array.length words) in
    Array.iteri
      (fun i w ->
        for k = 0 to 3 do
          Bytes.set b ((4 * i) + k) (Char.chr ((w lsr (8 * k)) land 0xFF))
        done)
      words;
    b
  in
  let a, b = Workload.vectors ~seed:21 ~n in
  let buf_a = Platform.alloc_bytes p (to_bytes a) in
  let buf_b = Platform.alloc_bytes p (to_bytes b) in
  let buf_c = Platform.alloc p (4 * n) in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "syscall failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  ok (Api.fpga_map_object p.Platform.api ~id:0 ~buf:buf_a ~dir:Rvi_core.Mapped_object.In ());
  ok (Api.fpga_map_object p.Platform.api ~id:1 ~buf:buf_b ~dir:Rvi_core.Mapped_object.In ());
  ok (Api.fpga_map_object p.Platform.api ~id:2 ~buf:buf_c ~dir:Rvi_core.Mapped_object.Out ());
  ok (Api.fpga_execute p.Platform.api ~params:[ n ]);
  let first = Platform.read p buf_c in
  (* Change an input in place and execute again without remapping. *)
  let a2 = Array.map (fun x -> x + 1) a in
  Rvi_os.Uspace.write p.Platform.kernel buf_a (to_bytes a2);
  ok (Api.fpga_execute p.Platform.api ~params:[ n ]);
  let second = Platform.read p buf_c in
  checkb "first run correct" true
    (Bytes.equal first (to_bytes (Rvi_coproc.Vecadd.reference ~a ~b)));
  checkb "second run correct" true
    (Bytes.equal second (to_bytes (Rvi_coproc.Vecadd.reference ~a:a2 ~b)));
  checki "two executions" 2
    (Rvi_sim.Stats.get (Rvi_core.Vim.stats p.Platform.vim) "executions")

(* {1 Failure injection through the syscall API} *)

let test_api_unmapped_object () =
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let buf = Platform.alloc p 400 in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  ok (Api.fpga_map_object p.Platform.api ~id:0 ~buf ~dir:Rvi_core.Mapped_object.In ());
  (* objects 1 and 2 deliberately missing *)
  (match Api.fpga_execute p.Platform.api ~params:[ 100 ] with
  | Error Rvi_os.Syscall.EFAULT -> ()
  | Ok () -> Alcotest.fail "execute with unmapped objects succeeded"
  | Error e -> Alcotest.failf "wrong errno %s" (Rvi_os.Syscall.errno_name e));
  checkb "diagnostic available" true (Api.last_error p.Platform.api <> None)

let test_api_object_overflow () =
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let n = 1024 in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  let full = Platform.alloc p (4 * n) in
  let short = Platform.alloc p 64 in
  ok (Api.fpga_map_object p.Platform.api ~id:0 ~buf:full ~dir:Rvi_core.Mapped_object.In ());
  ok (Api.fpga_map_object p.Platform.api ~id:1 ~buf:full ~dir:Rvi_core.Mapped_object.In ());
  (* The output object is far too small for n elements. *)
  ok (Api.fpga_map_object p.Platform.api ~id:2 ~buf:short ~dir:Rvi_core.Mapped_object.Out ());
  match Api.fpga_execute p.Platform.api ~params:[ n ] with
  | Error Rvi_os.Syscall.EFAULT -> ()
  | Ok () -> Alcotest.fail "overflowing execute succeeded"
  | Error e -> Alcotest.failf "wrong errno %s" (Rvi_os.Syscall.errno_name e)

let test_api_execute_without_load () =
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  match Api.fpga_execute p.Platform.api ~params:[ 1 ] with
  | Error Rvi_os.Syscall.EINVAL -> ()
  | Ok () -> Alcotest.fail "execute without a bit-stream succeeded"
  | Error e -> Alcotest.failf "wrong errno %s" (Rvi_os.Syscall.errno_name e)

let test_api_duplicate_map () =
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let buf = Platform.alloc p 64 in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_map_object p.Platform.api ~id:0 ~buf ~dir:Rvi_core.Mapped_object.In ());
  match Api.fpga_map_object p.Platform.api ~id:0 ~buf ~dir:Rvi_core.Mapped_object.In () with
  | Error Rvi_os.Syscall.EINVAL -> ()
  | Ok () -> Alcotest.fail "duplicate identifier accepted"
  | Error e -> Alcotest.failf "wrong errno %s" (Rvi_os.Syscall.errno_name e)

let test_api_oversized_bitstream () =
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let monster =
    Rvi_fpga.Bitstream.make ~name:"monster" ~logic_elements:1_000_000
      ~imu_freq_hz:40_000_000 ~param_words:0 ()
  in
  match Api.fpga_load p.Platform.api monster with
  | Error Rvi_os.Syscall.ENOSPC -> ()
  | Ok () -> Alcotest.fail "oversized bit-stream loaded"
  | Error e -> Alcotest.failf "wrong errno %s" (Rvi_os.Syscall.errno_name e)

let test_api_unload () =
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  ok (Api.fpga_unload p.Platform.api);
  checkb "lattice free" true (Rvi_fpga.Pld.loaded p.Platform.pld = None);
  checkb "objects forgotten" true (Rvi_core.Vim.objects p.Platform.vim = [])

let test_tiny_dpram_no_frames () =
  (* One-page dual-port memory: no room for data next to the parameter
     page. The VIM must fail cleanly with ENOMEM. *)
  let device =
    { Rvi_fpga.Device.epxa1 with Rvi_fpga.Device.dpram_bytes = 2048; name = "TINY" }
  in
  let cfg = { (cfg ()) with Config.device } in
  let a, b = Workload.vectors ~seed:1 ~n:16 in
  let row = Runner.vecadd_vim cfg ~a ~b in
  match row.Report.outcome with
  | Report.Failed msg ->
    checkb "mentions memory" true (String.length msg > 0)
  | Report.Measured | Report.Exceeds_memory | Report.Degraded _ ->
    Alcotest.fail "one-page memory unexpectedly worked"

let test_tiny_tlb_still_correct () =
  let cfg = { (cfg ()) with Config.tlb_entries = Some 2 } in
  let input = Workload.adpcm_stream ~seed:30 ~bytes:4096 in
  let row = Runner.adpcm_vim cfg ~input in
  checkb "verified with a 2-entry TLB" true (Report.ok row);
  checkb "refill faults appear" true (row.Report.tlb_refill_faults > 0)

(* {1 Config and report helpers} *)

let test_config () =
  let c = cfg () in
  checkb "describe mentions device" true
    (String.length (Config.describe c) > 0);
  Alcotest.check_raises "unknown policy"
    (Invalid_argument "Config.with_policy: unknown policy \"belady\"")
    (fun () -> ignore (Config.with_policy c "belady"));
  let pipelined = { c with Config.imu_kind = Config.Pipelined } in
  checki "pipelined lookup states" 0
    (Config.imu_config pipelined).Rvi_core.Imu.lookup_states;
  checki "default tlb = pages" 8 (Config.imu_config c).Rvi_core.Imu.tlb_entries

let test_report_helpers () =
  let mk total =
    {
      Report.app = "x";
      version = "SW";
      input_bytes = 2048;
      outcome = Report.Measured;
      total = Simtime.of_ms total;
      hw = Simtime.zero;
      sw_dp = Simtime.zero;
      sw_imu = Simtime.zero;
      sw_app = Simtime.of_ms total;
      sw_os = Simtime.zero;
      faults = 0;
      evictions = 0;
      writebacks = 0;
      tlb_refill_faults = 0;
      prefetched = 0;
      accesses = 0;
      fault_p95_us = 0.0;
      fault_p99_us = 0.0;
      retries = 0;
      verified = true;
    }
  in
  let baseline = mk 10 and fast = { (mk 2) with Report.version = "VIM" } in
  (match Report.speedup ~baseline fast with
  | Some s -> Alcotest.(check (float 1e-6)) "speedup" 5.0 s
  | None -> Alcotest.fail "no speedup");
  Alcotest.(check string) "size label KB" "2KB" (Report.size_label 2048);
  Alcotest.(check string) "size label B" "100B" (Report.size_label 100);
  (* Regression: non-KiB-aligned sizes were mislabelled in bytes
     ("1536B"); they must render as fractional KB. *)
  Alcotest.(check string) "size label 1.5KB" "1.5KB" (Report.size_label 1536);
  Alcotest.(check string) "size label 1.25KB" "1.25KB" (Report.size_label 1280);
  Alcotest.(check string) "size label just over" "1.0KB" (Report.size_label 1025);
  Alcotest.(check string) "size label under 1K" "1000B" (Report.size_label 1000);
  let csv = Report.csv [ baseline; fast ] in
  checkb "csv header" true (String.length csv > 0 && String.sub csv 0 3 = "app");
  checki "csv lines" 3
    (List.length (String.split_on_char '\n' (String.trim csv)))

(* {1 Experiments on reduced workloads} *)

let test_fig7_latency () =
  let f = Experiments.fig7 null_ppf () in
  checki "four-cycle translation (Figure 7)" 4 f.Experiments.latency_cycles;
  checkb "waveform mentions cp_tlbhit" true
    (String.length f.Experiments.waveform > 0);
  checkb "vcd non-empty" true (String.length f.Experiments.vcd > 0);
  let p = Experiments.fig7 ~pipelined:true null_ppf () in
  checkb "pipelined is faster" true
    (p.Experiments.latency_cycles < f.Experiments.latency_cycles)

let test_fig8_shape () =
  let rows = Experiments.fig8 ~sizes_kb:[ 2 ] null_ppf (cfg ()) in
  checki "two rows per size" 2 (List.length rows);
  let sw = List.nth rows 0 and vim = List.nth rows 1 in
  checkb "all verified" true (Report.ok sw && Report.ok vim);
  match Report.speedup ~baseline:sw vim with
  | Some s -> checkb "speedup near the paper's 1.5x" true (s > 1.2 && s < 1.9)
  | None -> Alcotest.fail "no speedup"

let test_fig9_shape () =
  let rows = Experiments.fig9 ~sizes_kb:[ 4; 16 ] null_ppf (cfg ()) in
  checki "three rows per size" 6 (List.length rows);
  let sw4 = List.nth rows 0 and nrm4 = List.nth rows 1 and vim4 = List.nth rows 2 in
  let nrm16 = List.nth rows 4 and vim16 = List.nth rows 5 in
  checkb "sw/normal/vim at 4KB verified" true
    (Report.ok sw4 && Report.ok nrm4 && Report.ok vim4);
  (match Report.speedup ~baseline:sw4 nrm4 with
  | Some s -> checkb "normal near the paper's 18x" true (s > 14.0 && s < 22.0)
  | None -> Alcotest.fail "no normal speedup");
  (match Report.speedup ~baseline:sw4 vim4 with
  | Some s -> checkb "vim near the paper's 11-12x" true (s > 9.0 && s < 16.0)
  | None -> Alcotest.fail "no vim speedup");
  checkb "normal exceeds memory at 16KB" true
    (nrm16.Report.outcome = Report.Exceeds_memory);
  checkb "vim runs 16KB" true (Report.ok vim16)

let test_overhead_claims () =
  let o = Experiments.overheads null_ppf (cfg ()) in
  checkb "IMU management small (paper: <= 2.5%)" true
    (o.Experiments.adpcm_imu_share_max < 0.05);
  checkb "translation overhead in the paper's ballpark (~20%)" true
    (o.Experiments.idea_translation_share > 0.05
    && o.Experiments.idea_translation_share < 0.35);
  checkb "DP management dominates software overhead" true
    (o.Experiments.dp_share_of_overhead > 0.5)

let test_ablation_transfer_halves_dp () =
  let rows = Experiments.ablation_transfer null_ppf (cfg ()) in
  let find label = List.assoc label rows in
  let double = find "adpcm-8KB/double" and single = find "adpcm-8KB/single" in
  let ratio = Simtime.to_ms double.Report.sw_dp /. Simtime.to_ms single.Report.sw_dp in
  checkb "double transfers cost twice the DP time" true
    (ratio > 1.9 && ratio < 2.1)

let test_ablation_pipelined_imu_faster () =
  let rows = Experiments.ablation_pipelined_imu null_ppf (cfg ()) in
  let find label = List.assoc label rows in
  checkb "pipelined IMU cuts hardware time" true
    Simtime.(
      (find "idea-32KB/pipelined").Report.hw
      < (find "idea-32KB/4-cycle").Report.hw)

let test_ablation_prefetch_cuts_faults () =
  let rows = Experiments.ablation_prefetch null_ppf (cfg ()) in
  let find label = List.assoc label rows in
  checkb "prefetch reduces faults" true
    ((find "adpcm-8KB/prefetch-sequential-2").Report.faults
    < (find "adpcm-8KB/prefetch-off").Report.faults)

let test_portability_rows () =
  let rows = Experiments.portability null_ppf (cfg ()) in
  checkb "all verified on all devices" true
    (List.for_all (fun (_, r) -> Report.ok r) rows);
  let find label = List.assoc label rows in
  checkb "bigger device, no faults" true
    ((find "adpcm-8KB/EPXA10").Report.faults = 0
    && (find "adpcm-8KB/EPXA1").Report.faults > 0)

let test_chunked_normal () =
  let rows = Experiments.ablation_chunked_normal null_ppf (cfg ()) in
  let find label = List.assoc label rows in
  checkb "plain normal fails" true
    ((find "idea-16KB/normal-plain").Report.outcome = Report.Exceeds_memory);
  checkb "chunked normal verified" true
    ((find "idea-16KB/normal-chunked").Report.outcome = Report.Measured
    && (find "idea-16KB/normal-chunked").Report.verified);
  checkb "vim verified" true (Report.ok (find "idea-16KB/vim"))

let suite =
  [
    Alcotest.test_case "calibration/pins" `Quick test_calibration_pins;
    Alcotest.test_case "workload/deterministic" `Quick test_workloads_deterministic;
    Alcotest.test_case "e2e/vecadd" `Quick test_vecadd_end_to_end;
    Alcotest.test_case "e2e/adpcm-fits" `Quick test_adpcm_end_to_end_fits;
    Alcotest.test_case "e2e/adpcm-faults" `Quick test_adpcm_end_to_end_faults;
    Alcotest.test_case "e2e/idea" `Quick test_idea_end_to_end;
    Alcotest.test_case "e2e/idea-normal-vs-vim" `Quick test_idea_normal_vs_vim;
    Alcotest.test_case "e2e/sw-baselines" `Quick test_sw_baselines;
    QCheck_alcotest.to_alcotest prop_stack_bit_exact;
    QCheck_alcotest.to_alcotest prop_stack_idea_bit_exact;
    Alcotest.test_case "e2e/re-execution" `Quick test_reexecution;
    Alcotest.test_case "api/unmapped-object" `Quick test_api_unmapped_object;
    Alcotest.test_case "api/object-overflow" `Quick test_api_object_overflow;
    Alcotest.test_case "api/execute-without-load" `Quick test_api_execute_without_load;
    Alcotest.test_case "api/duplicate-map" `Quick test_api_duplicate_map;
    Alcotest.test_case "api/oversized-bitstream" `Quick test_api_oversized_bitstream;
    Alcotest.test_case "api/unload" `Quick test_api_unload;
    Alcotest.test_case "fail/tiny-dpram" `Quick test_tiny_dpram_no_frames;
    Alcotest.test_case "fail/tiny-tlb-correct" `Quick test_tiny_tlb_still_correct;
    Alcotest.test_case "config/helpers" `Quick test_config;
    Alcotest.test_case "report/helpers" `Quick test_report_helpers;
    Alcotest.test_case "experiments/fig7" `Quick test_fig7_latency;
    Alcotest.test_case "experiments/fig8" `Slow test_fig8_shape;
    Alcotest.test_case "experiments/fig9" `Slow test_fig9_shape;
    Alcotest.test_case "experiments/overheads" `Slow test_overhead_claims;
    Alcotest.test_case "experiments/transfer-ablation" `Slow
      test_ablation_transfer_halves_dp;
    Alcotest.test_case "experiments/pipelined-ablation" `Slow
      test_ablation_pipelined_imu_faster;
    Alcotest.test_case "experiments/prefetch-ablation" `Slow
      test_ablation_prefetch_cuts_faults;
    Alcotest.test_case "experiments/portability" `Slow test_portability_rows;
    Alcotest.test_case "experiments/chunked-normal" `Slow test_chunked_normal;
  ]

(* {1 FIR end to end} *)

let test_fir_end_to_end () =
  let coeffs = Workload.fir_coeffs ~taps:16 in
  let input = Workload.fir_signal ~seed:40 ~bytes:(12 * 1024) in
  let sw = Runner.fir_sw (cfg ()) ~coeffs ~shift:12 ~input in
  let vim = Runner.fir_vim (cfg ()) ~coeffs ~shift:12 ~input in
  checkb "sw verified" true (Report.ok sw);
  checkb "vim verified" true (Report.ok vim);
  checkb "faults on a 24 KB working set" true (vim.Report.faults > 0);
  match Report.speedup ~baseline:sw vim with
  | Some s -> checkb "hardware wins" true (s > 1.0)
  | None -> Alcotest.fail "no speedup"

let test_fir_normal_exceeds () =
  let coeffs = Workload.fir_coeffs ~taps:16 in
  let input = Workload.fir_signal ~seed:41 ~bytes:(16 * 1024) in
  let row = Runner.fir_normal (cfg ()) ~coeffs ~shift:12 ~input in
  checkb "fir normal exceeds memory at 16 KB" true
    (row.Report.outcome = Report.Exceeds_memory)

(* {1 DMA copy engine} *)

let test_dma_time () =
  let dma = Rvi_mem.Dma.default in
  checki "zero is free" 0
    (Simtime.to_ps (Rvi_mem.Dma.transfer_time dma ~bytes:0));
  let t = Rvi_mem.Dma.transfer_time dma ~bytes:2048 in
  (* 512 words at 66 MHz: ~7.8 us. *)
  checkb "page burst near 8us" true
    (Simtime.to_us t > 7.0 && Simtime.to_us t < 9.0);
  Alcotest.check_raises "negative" (Invalid_argument "Dma.transfer_time: negative size")
    (fun () -> ignore (Rvi_mem.Dma.transfer_time dma ~bytes:(-1)))

let test_dma_vim_cheaper () =
  let input = Workload.adpcm_stream ~seed:42 ~bytes:(8 * 1024) in
  let cpu = Runner.adpcm_vim (cfg ()) ~input in
  let dma =
    Runner.adpcm_vim
      { (cfg ()) with Config.copy_engine = Rvi_core.Vim.Dma_engine Rvi_mem.Dma.default }
      ~input
  in
  checkb "both verified" true (Report.ok cpu && Report.ok dma);
  checkb "dma slashes DP management time" true
    (Simtime.to_ms dma.Report.sw_dp < 0.2 *. Simtime.to_ms cpu.Report.sw_dp);
  checkb "same fault behaviour" true (dma.Report.faults = cpu.Report.faults)

(* {1 Overlapped prefetch} *)

let test_overlap_prefetch () =
  let input = Workload.adpcm_stream ~seed:43 ~bytes:(8 * 1024) in
  let base = { (cfg ()) with Config.prefetch = Rvi_core.Prefetch.sequential ~depth:2 } in
  let sync = Runner.adpcm_vim base ~input in
  let over = Runner.adpcm_vim { base with Config.overlap_prefetch = true } ~input in
  checkb "both verified" true (Report.ok sync && Report.ok over);
  checkb "overlap reduces wall time" true
    Simtime.(over.Report.total < sync.Report.total);
  checkb "same fault count" true (over.Report.faults = sync.Report.faults)

(* {1 Miss-ratio-curve analysis} *)

let test_mrc_hand_trace () =
  let refs = [| (0, 0); (0, 1); (0, 0); (0, 2); (0, 0); (0, 1) |] in
  checki "distinct" 3 (Rvi_harness.Mrc.distinct_pages refs);
  let d = Rvi_harness.Mrc.lru_stack_distances refs in
  checkb "distances" true
    (Array.to_list d = [ None; None; Some 1; None; Some 1; Some 2 ]);
  let misses = Rvi_harness.Mrc.lru_misses refs ~max_frames:3 in
  Alcotest.(check (array int)) "lru curve" [| 6; 4; 3 |] misses;
  checki "fifo at 2" 5 (Rvi_harness.Mrc.fifo_misses refs ~frames:2);
  checki "fifo at 3" 3 (Rvi_harness.Mrc.fifo_misses refs ~frames:3)

let prop_mrc_curve_monotone =
  QCheck.Test.make ~name:"lru miss curve is non-increasing and ends compulsory"
    ~count:100
    QCheck.(list_of_size (Gen.return 60) (int_bound 9))
    (fun pages ->
      let refs = Array.of_list (List.map (fun p -> (0, p)) pages) in
      let curve = Rvi_harness.Mrc.lru_misses refs ~max_frames:12 in
      let monotone = ref true in
      for i = 1 to Array.length curve - 1 do
        if curve.(i) > curve.(i - 1) then monotone := false
      done;
      !monotone
      && curve.(11) = Rvi_harness.Mrc.distinct_pages refs)

let prop_mrc_fifo_at_least_compulsory =
  QCheck.Test.make ~name:"fifo misses >= compulsory misses" ~count:100
    QCheck.(pair (list_of_size (Gen.return 40) (int_bound 7)) (int_range 1 8))
    (fun (pages, frames) ->
      let refs = Array.of_list (List.map (fun p -> (1, p)) pages) in
      Rvi_harness.Mrc.fifo_misses refs ~frames
      >= Rvi_harness.Mrc.distinct_pages refs)

let test_trace_recording () =
  (* Record a small adpcm run; the reference string must cover exactly the
     pages of the two data objects and exclude the parameter object. *)
  let input = Workload.adpcm_stream ~seed:44 ~bytes:2048 in
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.Virtual.create
  in
  let collect = Rvi_harness.Mrc.record p.Platform.imu in
  let in_buf = Platform.alloc_bytes p input in
  let out_buf = Platform.alloc p (Rvi_coproc.Adpcm_ref.decoded_size 2048) in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.adpcm_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf:in_buf
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:1 ~buf:out_buf
       ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  ok (Api.fpga_execute p.Platform.api ~params:[ 2048 ]);
  let refs = collect () in
  checki "one reference per data access" (2048 + 4096)
    (Array.length refs);
  checkb "no parameter references" true
    (Array.for_all (fun (o, _) -> o <> Rvi_core.Cp_port.param_obj) refs);
  (* 1 input page + 4 output pages *)
  checki "distinct pages" 5 (Rvi_harness.Mrc.distinct_pages refs);
  (* Detached: further execution must not grow the trace. *)
  ok (Api.fpga_execute p.Platform.api ~params:[ 2048 ]);
  checki "probe detached" (2048 + 4096) (Array.length refs)

let ext_suite =
  [
    Alcotest.test_case "fir/e2e" `Quick test_fir_end_to_end;
    Alcotest.test_case "fir/normal-exceeds" `Quick test_fir_normal_exceeds;
    Alcotest.test_case "dma/timing" `Quick test_dma_time;
    Alcotest.test_case "dma/vim-cheaper" `Quick test_dma_vim_cheaper;
    Alcotest.test_case "overlap/prefetch" `Quick test_overlap_prefetch;
    Alcotest.test_case "mrc/hand-trace" `Quick test_mrc_hand_trace;
    QCheck_alcotest.to_alcotest prop_mrc_curve_monotone;
    QCheck_alcotest.to_alcotest prop_mrc_fifo_at_least_compulsory;
    Alcotest.test_case "mrc/trace-recording" `Quick test_trace_recording;
  ]

let suite = suite @ ext_suite

(* {1 CBC through the full stack} *)

let test_cbc_vim_pipeline_cost () =
  let key = Workload.idea_key ~seed:50 in
  let iv = [| 1; 2; 3; 4 |] in
  let input = Workload.idea_plaintext ~seed:50 ~bytes:4096 in
  let run mode = Runner.idea_cbc_vim (cfg ()) ~mode ~key ~iv ~input in
  let ecb = run Rvi_coproc.Idea_coproc.Ecb_encrypt in
  let cbc_enc = run Rvi_coproc.Idea_coproc.Cbc_encrypt in
  let cbc_dec =
    let ct = Rvi_coproc.Idea_ref.cbc ~key ~decrypt:false ~iv input in
    Runner.idea_cbc_vim (cfg ()) ~mode:Rvi_coproc.Idea_coproc.Cbc_decrypt ~key
      ~iv ~input:ct
  in
  checkb "all verified" true
    (ecb.Report.verified && cbc_enc.Report.verified && cbc_dec.Report.verified);
  checkb "cbc encryption serialises the pipeline" true
    (Simtime.to_ms cbc_enc.Report.hw > 1.8 *. Simtime.to_ms ecb.Report.hw);
  checkb "cbc decryption still pipelines" true
    (Simtime.to_ms cbc_dec.Report.hw < 1.2 *. Simtime.to_ms ecb.Report.hw)

let more_suite =
  [
    Alcotest.test_case "cbc/pipeline-cost" `Slow test_cbc_vim_pipeline_cost;
  ]

let suite = suite @ more_suite

(* {1 Belady's optimal} *)

let test_opt_hand () =
  (* The textbook Belady example where FIFO loses pages it still needs. *)
  let refs = Array.map (fun p -> (0, p)) [| 0; 1; 2; 0; 1; 3; 0; 1 |] in
  checki "opt at 3 frames" 4 (Rvi_harness.Mrc.opt_misses refs ~frames:3);
  checkb "fifo is worse or equal" true
    (Rvi_harness.Mrc.fifo_misses refs ~frames:3
    >= Rvi_harness.Mrc.opt_misses refs ~frames:3)

let prop_opt_lower_bound =
  QCheck.Test.make ~name:"opt lower-bounds lru and fifo at every size"
    ~count:100
    QCheck.(pair (list_of_size (Gen.return 50) (int_bound 8)) (int_range 1 8))
    (fun (pages, frames) ->
      let refs = Array.of_list (List.map (fun p -> (0, p)) pages) in
      let opt = Rvi_harness.Mrc.opt_misses refs ~frames in
      let lru = (Rvi_harness.Mrc.lru_misses refs ~max_frames:frames).(frames - 1) in
      let fifo = Rvi_harness.Mrc.fifo_misses refs ~frames in
      opt <= lru && opt <= fifo
      && opt >= Rvi_harness.Mrc.distinct_pages refs * 0
      && opt >= (if Array.length refs > 0 then 1 else 0) * min 1 (Array.length refs))

let opt_suite =
  [
    Alcotest.test_case "mrc/opt-hand" `Quick test_opt_hand;
    QCheck_alcotest.to_alcotest prop_opt_lower_bound;
  ]

let suite = suite @ opt_suite

(* {1 Analytical model vs simulator} *)

let within pct a b = abs_float (a -. b) /. Float.max 1e-9 b <= pct

let test_model_adpcm () =
  List.iter
    (fun kb ->
      let input = Workload.adpcm_stream ~seed:70 ~bytes:(kb * 1024) in
      let row = Runner.adpcm_vim (cfg ()) ~input in
      let p = Rvi_harness.Model.adpcm_vim (cfg ()) ~input_bytes:(kb * 1024) in
      checkb
        (Printf.sprintf "hw within 5%% at %dKB (model %.3f, sim %.3f)" kb
           p.Rvi_harness.Model.hw_ms
           (Simtime.to_ms row.Report.hw))
        true
        (within 0.05 p.Rvi_harness.Model.hw_ms (Simtime.to_ms row.Report.hw));
      checkb "compulsory dp is a lower bound" true
        (p.Rvi_harness.Model.dp_compulsory_ms
        <= Simtime.to_ms row.Report.sw_dp +. 0.001))
    [ 2; 8 ]

let test_model_adpcm_pipelined () =
  let cfg = { (cfg ()) with Config.imu_kind = Config.Pipelined } in
  let input = Workload.adpcm_stream ~seed:71 ~bytes:8192 in
  let row = Runner.adpcm_vim cfg ~input in
  let p = Rvi_harness.Model.adpcm_vim cfg ~input_bytes:8192 in
  checkb "pipelined hw within 5%" true
    (within 0.05 p.Rvi_harness.Model.hw_ms (Simtime.to_ms row.Report.hw))

let test_model_idea () =
  let key = Workload.idea_key ~seed:72 in
  let input = Workload.idea_plaintext ~seed:72 ~bytes:8192 in
  let row = Runner.idea_vim (cfg ()) ~key ~input in
  let p = Rvi_harness.Model.idea_vim (cfg ()) ~input_bytes:8192 in
  checkb
    (Printf.sprintf "idea hw within 10%% (model %.3f, sim %.3f)"
       p.Rvi_harness.Model.hw_ms
       (Simtime.to_ms row.Report.hw))
    true
    (within 0.10 p.Rvi_harness.Model.hw_ms (Simtime.to_ms row.Report.hw))

let test_model_fir () =
  let coeffs = Workload.fir_coeffs ~taps:16 in
  let input = Workload.fir_signal ~seed:73 ~bytes:4096 in
  let row = Runner.fir_vim (cfg ()) ~coeffs ~shift:12 ~input in
  let p = Rvi_harness.Model.fir_vim (cfg ()) ~taps:16 ~input_bytes:4096 in
  checkb
    (Printf.sprintf "fir hw within 10%% (model %.3f, sim %.3f)"
       p.Rvi_harness.Model.hw_ms
       (Simtime.to_ms row.Report.hw))
    true
    (within 0.10 p.Rvi_harness.Model.hw_ms (Simtime.to_ms row.Report.hw))

let model_suite =
  [
    Alcotest.test_case "model/adpcm" `Quick test_model_adpcm;
    Alcotest.test_case "model/adpcm-pipelined" `Quick test_model_adpcm_pipelined;
    Alcotest.test_case "model/idea" `Quick test_model_idea;
    Alcotest.test_case "model/fir" `Quick test_model_fir;
  ]

let suite = suite @ model_suite

(* {1 Verification has teeth + determinism} *)

let test_corruption_detected () =
  (* Flip bits in the dual-port RAM while the coprocessor runs; the
     bit-exact verification must notice — otherwise every "verified"
     column in this repository would be vacuous. *)
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.Virtual.create
  in
  let input = Workload.adpcm_stream ~seed:80 ~bytes:2048 in
  let in_buf = Platform.alloc_bytes p input in
  let out_buf = Platform.alloc p (Rvi_coproc.Adpcm_ref.decoded_size 2048) in
  let strikes = ref 0 in
  Rvi_sim.Clock.add p.Platform.clock
    (Rvi_sim.Clock.component ~name:"gamma-ray"
       ~compute:(fun () ->
         if Rvi_sim.Clock.cycles p.Platform.clock = 20_000 then begin
           (* Page 2 holds decoded output by then; flip one byte. *)
           let addr = (2 * 2048) + 100 in
           let v = Rvi_mem.Dpram.cpu_read32 p.Platform.dpram addr in
           Rvi_mem.Dpram.cpu_write32 p.Platform.dpram addr (v lxor 0xFF);
           incr strikes
         end)
       ~commit:ignore ());
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.adpcm_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf:in_buf
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:1 ~buf:out_buf
       ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  ok (Api.fpga_execute p.Platform.api ~params:[ 2048 ]);
  checki "exactly one strike" 1 !strikes;
  let out = Platform.read p out_buf in
  checkb "corruption detected by verification" true
    (not (Bytes.equal out (Rvi_coproc.Adpcm_ref.decode input)))

let test_determinism () =
  let run () =
    let input = Workload.adpcm_stream ~seed:81 ~bytes:4096 in
    Runner.adpcm_vim (cfg ()) ~input
  in
  let a = run () and b = run () in
  checkb "identical wall time" true (Simtime.equal a.Report.total b.Report.total);
  checki "identical faults" a.Report.faults b.Report.faults;
  checki "identical accesses" a.Report.accesses b.Report.accesses;
  checkb "identical split" true
    (Simtime.equal a.Report.hw b.Report.hw
    && Simtime.equal a.Report.sw_dp b.Report.sw_dp)

let robustness_suite =
  [
    Alcotest.test_case "verify/corruption-detected" `Quick test_corruption_detected;
    Alcotest.test_case "verify/deterministic" `Quick test_determinism;
  ]

let suite = suite @ robustness_suite

(* {1 Calibration sensitivity} *)

let test_sensitivity_orderings () =
  let rows = Experiments.sensitivity null_ppf (cfg ()) in
  checki "three sweep points" 3 (List.length rows);
  List.iter
    (fun (_, (a_sw, a_vim), (i_sw, i_nrm, i_vim)) ->
      checkb "adpcm VIM beats SW" true
        Simtime.(a_vim.Report.total < a_sw.Report.total);
      checkb "idea VIM beats SW" true
        Simtime.(i_vim.Report.total < i_sw.Report.total);
      checkb "normal beats VIM where it runs" true
        Simtime.(i_nrm.Report.total < i_vim.Report.total))
    rows

let sensitivity_suite =
  [ Alcotest.test_case "sensitivity/orderings" `Slow test_sensitivity_orderings ]

let suite = suite @ sensitivity_suite

(* {1 Dual coprocessors behind one IMU} *)

let test_dual_coprocessors () =
  let serial_ms, dual_ms, both_ok =
    Experiments.ext_dual null_ppf
      { (cfg ()) with Config.device = Rvi_fpga.Device.epxa4 }
  in
  checkb "both outputs bit-exact" true both_ok;
  checkb "concurrency wins when memory suffices" true (dual_ms < serial_ms)

let dual_suite =
  [ Alcotest.test_case "dual/arbiter-e2e" `Slow test_dual_coprocessors ]

let suite = suite @ dual_suite

let test_report_json () =
  let row =
    {
      Report.app = "x\"y";
      version = "VIM";
      input_bytes = 2048;
      outcome = Report.Measured;
      total = Simtime.of_ms 3;
      hw = Simtime.of_ms 2;
      sw_dp = Simtime.of_ms 1;
      sw_imu = Simtime.zero;
      sw_app = Simtime.zero;
      sw_os = Simtime.zero;
      faults = 4;
      evictions = 3;
      writebacks = 2;
      tlb_refill_faults = 1;
      prefetched = 0;
      accesses = 99;
      fault_p95_us = 12.5;
      fault_p99_us = 14.25;
      retries = 0;
      verified = true;
    }
  in
  let j = Report.json [ row; row ] in
  checkb "array" true (String.length j > 2 && j.[0] = '[');
  checkb "escapes quotes" true
    (let rec has i =
       i + 6 <= String.length j && (String.sub j i 6 = {|"x\"y"|} || has (i + 1))
     in
     has 0);
  checkb "fields present" true
    (let has needle =
       let rec go i =
         (i + String.length needle <= String.length j)
         && (String.sub j i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     has {|"faults":4|} && has {|"verified":true|} && has {|"total_ms":3.0|})

let json_suite = [ Alcotest.test_case "report/json" `Quick test_report_json ]
let suite = suite @ json_suite

(* {1 Syscall-interface fuzzing}

   Random sequences of syscalls with random arguments must never crash the
   kernel: every outcome is a return code. (The one deliberate exception
   is hardware integration bugs like double faults, which cannot be
   produced through the syscall surface.) *)

let prop_syscall_fuzz =
  QCheck.Test.make ~name:"random syscall sequences never crash the kernel"
    ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 5 25))
    (fun (seed, n_calls) ->
      let prng = Rvi_sim.Prng.create ~seed in
      let p =
        Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
          ~make:Rvi_coproc.Vecadd.Virtual.create
      in
      let kernel = p.Platform.kernel in
      let numbers =
        [|
          Rvi_os.Syscall.fpga_load;
          Rvi_os.Syscall.fpga_map_object;
          Rvi_os.Syscall.fpga_execute;
          Rvi_os.Syscall.fpga_unload;
          9999 (* unknown *);
        |]
      in
      let ok = ref true in
      for _ = 1 to n_calls do
        let number = numbers.(Rvi_sim.Prng.int prng (Array.length numbers)) in
        let argc = Rvi_sim.Prng.int prng 7 in
        let args =
          Array.init argc (fun _ -> Rvi_sim.Prng.int prng 70_000 - 1_000)
        in
        match Rvi_os.Kernel.syscall kernel ~number args with
        | (_ : int) -> ()
        | exception _ -> ok := false
      done;
      !ok)

let fuzz_suite = [ QCheck_alcotest.to_alcotest prop_syscall_fuzz ]
let suite = suite @ fuzz_suite

(* {1 Model holds across random sizes and both IMU variants} *)

let prop_model_tracks_simulator =
  QCheck.Test.make ~name:"analytical model tracks the simulator (adpcm)"
    ~count:6
    QCheck.(pair (int_range 1 10) bool)
    (fun (kb, pipelined) ->
      let cfg =
        {
          (cfg ()) with
          Config.imu_kind = (if pipelined then Config.Pipelined else Config.Four_cycle);
        }
      in
      let bytes = kb * 1024 in
      let input = Workload.adpcm_stream ~seed:kb ~bytes in
      let row = Runner.adpcm_vim cfg ~input in
      let p = Rvi_harness.Model.adpcm_vim cfg ~input_bytes:bytes in
      abs_float (p.Rvi_harness.Model.hw_ms -. Simtime.to_ms row.Report.hw)
      /. Simtime.to_ms row.Report.hw
      < 0.05)

let model_prop_suite = [ QCheck_alcotest.to_alcotest prop_model_tracks_simulator ]
let suite = suite @ model_prop_suite

(* {1 Profile-guided optimal replacement} *)

let test_oracle_reaches_belady () =
  let results, opt_bound = Experiments.ext_oracle null_ppf (cfg ()) in
  let get name = List.assoc name results in
  let fifo_faults, fifo_ok = get "fifo" in
  let oracle_faults, oracle_ok = get "oracle" in
  checkb "both verified" true (fifo_ok && oracle_ok);
  checkb "fifo thrashes on the cyclic pattern" true (fifo_faults > oracle_faults);
  checki "oracle exactly meets the analytic OPT bound" opt_bound oracle_faults

let oracle_suite =
  [ Alcotest.test_case "oracle/belady-live" `Slow test_oracle_reaches_belady ]

let suite = suite @ oracle_suite

(* {1 Cross-feature combinations} *)

let prop_feature_combinations =
  QCheck.Test.make
    ~name:"feature combinations stay bit-exact (dma x overlap x tlb-org x imu)"
    ~count:6
    QCheck.(
      quad bool bool (int_bound 2) bool)
    (fun (dma, overlap, org_idx, pipelined) ->
      let org =
        List.nth
          [
            Rvi_core.Tlb.Fully_associative;
            Rvi_core.Tlb.Set_associative 2;
            Rvi_core.Tlb.Direct_mapped;
          ]
          org_idx
      in
      let cfg =
        {
          (cfg ()) with
          Config.copy_engine =
            (if dma then Rvi_core.Vim.Dma_engine Rvi_mem.Dma.default
             else Rvi_core.Vim.Cpu);
          prefetch =
            (if overlap then Rvi_core.Prefetch.sequential ~depth:1
             else Rvi_core.Prefetch.off);
          overlap_prefetch = overlap;
          tlb_organization = org;
          imu_kind = (if pipelined then Config.Pipelined else Config.Four_cycle);
        }
      in
      let input = Workload.adpcm_stream ~seed:(org_idx + 7) ~bytes:4096 in
      Report.ok (Runner.adpcm_vim cfg ~input))

let prop_demand_paging_bit_exact =
  QCheck.Test.make ~name:"demand paging (no eager mapping) stays bit-exact"
    ~count:6
    QCheck.(pair (int_bound 500) (int_range 1 8))
    (fun (seed, kb) ->
      let cfg = { (cfg ()) with Config.eager_mapping = false; seed } in
      let input = Workload.adpcm_stream ~seed ~bytes:(kb * 1024) in
      let row = Runner.adpcm_vim cfg ~input in
      Report.ok row
      (* every page must now arrive by demand fault *)
      && row.Report.faults > 0)

let combo_suite =
  [
    QCheck_alcotest.to_alcotest prop_feature_combinations;
    QCheck_alcotest.to_alcotest prop_demand_paging_bit_exact;
  ]

let suite = suite @ combo_suite

(* Regression: a prefetch refill must never evict the TLB entry of the
   page whose fault is being serviced (direct-mapped conflict), which
   previously tripped the IMU's double-fault guard. *)
let test_prefetch_vs_faulting_entry () =
  List.iter
    (fun overlap_prefetch ->
      let cfg =
        {
          (cfg ()) with
          Config.tlb_organization = Rvi_core.Tlb.Direct_mapped;
          prefetch = Rvi_core.Prefetch.sequential ~depth:2;
          overlap_prefetch;
        }
      in
      let input = Workload.adpcm_stream ~seed:91 ~bytes:4096 in
      let row = Runner.adpcm_vim cfg ~input in
      checkb
        (Printf.sprintf "verified (overlap=%b)" overlap_prefetch)
        true (Report.ok row))
    [ false; true ]

let regression_suite =
  [
    Alcotest.test_case "regression/prefetch-vs-faulting-entry" `Quick
      test_prefetch_vs_faulting_entry;
  ]

let suite = suite @ regression_suite

(* {1 Pooled platforms}

   The campaign fast path re-arms a pooled platform in place instead of
   constructing a fresh one. [Platform.reset]'s contract is that the two
   are indistinguishable: the same (workload, injector seed) run on a
   pooled platform must produce a byte-identical result row — outcome,
   fault counts, simulated times — to the run on a freshly built
   platform, fault schedule included. *)

let prop_pooled_equals_fresh =
  QCheck.Test.make
    ~name:"pooled platform run is byte-identical to a fresh-platform run"
    ~count:8
    QCheck.(pair (int_bound 3) (int_bound 10_000))
    (fun (app_index, seed) ->
      let apps = Rvi_harness.Faults.workloads ~seed:2004 in
      let app = apps.(app_index) in
      let spec = Rvi_inject.Spec.all () in
      let run ?pool () =
        Rvi_harness.Faults.run_one ?pool ~spec
          ~recovery:Rvi_core.Vim.default_recovery
          ~watchdog:Rvi_harness.Faults.default_watchdog ~exec_retries:2 ~seed
          app
      in
      let fresh = run () in
      let pool = Platform.Pool.create () in
      (* first run populates the pool, second re-arms the stashed
         platform — both must match the no-pool run *)
      let first = run ~pool () in
      let stashed = Platform.Pool.size pool = 1 in
      let pooled = run ~pool () in
      stashed && first = fresh && pooled = fresh)

let pooled_suite = [ QCheck_alcotest.to_alcotest prop_pooled_equals_fresh ]
let suite = suite @ pooled_suite

(* {1 Bench trajectory schema}

   The benchmark CLI appends trajectory points to BENCH_campaign.json
   with a hand-rolled writer (no JSON library in the image), so the
   writer itself is the schema: a regression-gate script that greps a
   key out of the newest entry silently reads garbage if a field is
   renamed or the object loses its shape. The file in the repo root is
   outside the test sandbox, so the check validates the writer's output
   for a synthetic point instead. *)

let test_bench_point_json_schema () =
  let p =
    {
      Rvi_harness.Bench_campaign.benchmark = "faults-campaign";
      commit = "deadbee";
      host_cores = 4;
      recommended_domains = 4;
      runs = 200;
      seed = 2004;
      jobs = 2;
      serial_s = 1.25;
      parallel_s = 1.5;
      serial_runs_per_sec = 160.0;
      parallel_runs_per_sec = 133.3;
      speedup = 0.83;
      deterministic = true;
      survival = 56.5;
      phase_setup_s = 0.2;
      phase_execute_s = 0.9;
      phase_report_s = 0.05;
    }
  in
  let json = Rvi_harness.Bench_campaign.point_json p in
  List.iter
    (fun key ->
      let needle = "\"" ^ key ^ "\"" in
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec scan i = i + nl <= jl && (String.sub json i nl = needle || scan (i + 1)) in
        scan 0
      in
      checkb (Printf.sprintf "key %S present" key) true found)
    [
      "benchmark"; "commit"; "host_cores"; "recommended_domains"; "runs";
      "seed"; "jobs";
      "serial_s"; "parallel_s"; "serial_runs_per_sec";
      "parallel_runs_per_sec"; "speedup"; "deterministic"; "survival_pct";
      "phase_setup_s"; "phase_execute_s"; "phase_report_s";
    ];
  (* shape: one balanced object, no trailing comma before the brace *)
  let depth = ref 0 and min_depth = ref 0 and last = ref ' ' in
  String.iter
    (fun c ->
      (match c with
      | '{' -> incr depth
      | '}' ->
        decr depth;
        if !depth < !min_depth then min_depth := !depth
      | _ -> ());
      if c <> ' ' && c <> '\n' then begin
        if c = '}' then checkb "no trailing comma" true (!last <> ',');
        last := c
      end)
    json;
  checkb "braces balanced" true (!depth = 0);
  checkb "never dips below top level" true (!min_depth >= 0);
  checkb "bool rendered as literal" true
    (let nl = String.length "\"deterministic\": true" in
     let rec scan i =
       i + nl <= String.length json
       && (String.sub json i nl = "\"deterministic\": true" || scan (i + 1))
     in
     scan 0)

let bench_suite =
  [
    Alcotest.test_case "bench/point-json-schema" `Quick
      test_bench_point_json_schema;
  ]

let suite = suite @ bench_suite

(* {1 Translation modes}

   The IOMMU/SVA path replaces per-object page lists with a per-process
   page table, a hardware walker and an L1/L2 TLB hierarchy. Three
   guarantees matter: the batched IMU stays equivalent to the reference
   IMU under TLB miss bursts in BOTH modes, every campaign workload
   still verifies end to end under SVA, and SVA runs are deterministic. *)

let prop_imu_variants_agree_across_modes =
  QCheck.Test.make
    ~name:"pipelined IMU matches four-cycle IMU under miss bursts, both modes"
    ~count:8
    QCheck.(triple (int_bound 500) (int_range 2 6) bool)
    (fun (seed, kb, sva) ->
      let translation =
        if sva then Rvi_core.Translation_mode.Iommu_sva
        else Rvi_core.Translation_mode.Paper_objects
      in
      (* A 2-entry TLB over a multi-page working set keeps the IMU in a
         near-permanent miss burst — the regime where a batched engine
         could legally reorder itself into different behaviour. *)
      let with_kind imu_kind =
        {
          (cfg ()) with
          Config.tlb_entries = Some 2;
          seed;
          imu_kind;
          translation;
        }
      in
      let input = Workload.adpcm_stream ~seed ~bytes:(kb * 1024) in
      let four = Runner.adpcm_vim (with_kind Config.Four_cycle) ~input in
      let pipe = Runner.adpcm_vim (with_kind Config.Pipelined) ~input in
      Report.ok four && Report.ok pipe
      && four.Report.faults = pipe.Report.faults
      && four.Report.evictions = pipe.Report.evictions
      && four.Report.writebacks = pipe.Report.writebacks
      && four.Report.accesses = pipe.Report.accesses)

let test_sva_end_to_end () =
  (* All four campaign workloads must verify bit-exact in SVA mode. *)
  let sva = { (cfg ()) with Config.translation = Rvi_core.Translation_mode.Iommu_sva } in
  let seed = sva.Config.seed in
  let check_row name row =
    checkb (name ^ " verified under SVA") true (Report.ok row)
  in
  check_row "adpcm"
    (Runner.adpcm_vim sva ~input:(Workload.adpcm_stream ~seed ~bytes:8192));
  check_row "idea"
    (Runner.idea_vim sva ~key:(Workload.idea_key ~seed)
       ~input:(Workload.idea_plaintext ~seed ~bytes:8192));
  check_row "fir"
    (Runner.fir_vim sva
       ~coeffs:(Workload.fir_coeffs ~taps:16)
       ~shift:12
       ~input:(Workload.fir_signal ~seed ~bytes:8192));
  let a, b = Workload.vectors ~seed ~n:1024 in
  check_row "vecadd" (Runner.vecadd_vim sva ~a ~b)

let prop_sva_deterministic =
  QCheck.Test.make ~name:"identical SVA runs produce identical rows" ~count:6
    QCheck.(pair (int_bound 500) (int_range 1 6))
    (fun (seed, kb) ->
      let sva =
        {
          (cfg ()) with
          Config.translation = Rvi_core.Translation_mode.Iommu_sva;
          seed;
        }
      in
      let input = Workload.adpcm_stream ~seed ~bytes:(kb * 1024) in
      let first = Runner.adpcm_vim sva ~input in
      let second = Runner.adpcm_vim sva ~input in
      Report.ok first && first = second)

let translation_suite =
  [
    QCheck_alcotest.to_alcotest prop_imu_variants_agree_across_modes;
    Alcotest.test_case "sva/end-to-end-workloads" `Quick test_sva_end_to_end;
    QCheck_alcotest.to_alcotest prop_sva_deterministic;
  ]

let suite = suite @ translation_suite
