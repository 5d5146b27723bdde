module Simtime = Rvi_sim.Simtime
module Clock = Rvi_sim.Clock
module Kernel = Rvi_os.Kernel
module Uspace = Rvi_os.Uspace
module Device = Rvi_fpga.Device

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* Ablation sweeps shard variant-per-item over domains: every variant
   builds its own engine/kernel/device stack, so rows are independent
   and [Par.map] keeps them in variant order whatever [jobs] is.
   Rendering happens after the barrier, on the calling domain. *)
let par_variants ?(jobs = 1) f variants =
  List.concat (Rvi_par.Par.map ~domains:jobs ~chunk:1 f variants)

(* {1 Figure 7} *)

type fig7 = { waveform : string; vcd : string; latency_cycles : int }

let fig7 ?(pipelined = false) ppf () =
  let cfg =
    let base = Config.default () in
    if pipelined then { base with Config.imu_kind = Config.Pipelined } else base
  in
  let p =
    Platform.create ~app_name:"fig7" cfg
      ~bitstream:Calibration.vecadd_bitstream
      ~make:Rvi_coproc.Vecadd.Virtual.create
  in
  let kernel = p.Platform.kernel in
  let api = p.Platform.api in
  let wave = Platform.trace p in
  let n = 4 in
  let a, b = Workload.vectors ~seed:7 ~n in
  let word_bytes words =
    let bts = Bytes.create (4 * Array.length words) in
    Array.iteri
      (fun i w ->
        for k = 0 to 3 do
          Bytes.set bts ((4 * i) + k) (Char.chr ((w lsr (8 * k)) land 0xFF))
        done)
      words;
    bts
  in
  let buf_a = Uspace.of_bytes kernel (word_bytes a) in
  let buf_b = Uspace.of_bytes kernel (word_bytes b) in
  let buf_c = Uspace.alloc kernel (4 * n) in
  let ok r = match r with Ok () -> () | Error _ -> failwith "fig7: setup failed" in
  ok (Rvi_core.Api.fpga_load api Calibration.vecadd_bitstream);
  ok
    (Rvi_core.Api.fpga_map_object api ~id:Rvi_coproc.Vecadd.obj_a ~buf:buf_a
       ~dir:Rvi_core.Mapped_object.In ());
  ok
    (Rvi_core.Api.fpga_map_object api ~id:Rvi_coproc.Vecadd.obj_b ~buf:buf_b
       ~dir:Rvi_core.Mapped_object.In ());
  ok
    (Rvi_core.Api.fpga_map_object api ~id:Rvi_coproc.Vecadd.obj_c ~buf:buf_c
       ~dir:Rvi_core.Mapped_object.Out ());
  ok (Rvi_core.Api.fpga_execute api ~params:[ n ]);
  (* Find a translated *data* read: a CP_ACCESS pulse on object A followed
     by CP_TLBHIT (parameter-page reads hit too, so skip object 255). *)
  let access = Rvi_hw.Wave.values wave "cp_access" in
  let hit = Rvi_hw.Wave.values wave "cp_tlbhit" in
  let obj = Rvi_hw.Wave.values wave "cp_obj" in
  let wr = Rvi_hw.Wave.values wave "cp_wr" in
  let find_pulse () =
    let n = Array.length access in
    let rec go i =
      if i >= n then None
      else if
        access.(i) = 1
        && obj.(i) <> Rvi_core.Cp_port.param_obj
        && wr.(i) = 0
      then Some i
      else go (i + 1)
    in
    go 0
  in
  let pulse = Option.value (find_pulse ()) ~default:0 in
  let latency =
    let rec go k = if pulse + k >= Array.length hit then k else if hit.(pulse + k) = 1 then k else go (k + 1) in
    go 1
  in
  let from_cycle = max 0 (pulse - 1) in
  let waveform = Rvi_hw.Wave.render_ascii ~from_cycle ~cycles:(latency + 4) wave in
  let vcd =
    Rvi_hw.Wave.to_vcd
      ~timescale_ps:(Simtime.to_ps (Clock.period p.Platform.clock))
      wave
  in
  Format.fprintf ppf
    "@.== Figure 7: coprocessor read access through the %s IMU ==@.%s@.Data \
     is ready on rising edge %d after CP_ACCESS (paper: 4th edge).@."
    (if pipelined then "pipelined" else "4-cycle")
    waveform latency;
  { waveform; vcd; latency_cycles = latency }

(* {1 Figures 8 and 9} *)

let fig8 ?(sizes_kb = [ 2; 4; 8 ]) ?jobs ppf cfg =
  let rows =
    par_variants ?jobs
      (fun kb ->
        let input = Workload.adpcm_stream ~seed:(100 + kb) ~bytes:(kb * 1024) in
        [ Runner.adpcm_sw cfg ~input; Runner.adpcm_vim cfg ~input ])
      sizes_kb
  in
  Report.print_table
    ~title:"== Figure 8: adpcmdecode execution times (SW vs VIM-based) =="
    ppf rows;
  Report.bar_chart ~title:"(stacked bars, as in the paper's Figure 8)"
    ~baseline_version:"SW" ppf rows;
  rows

let fig9 ?(sizes_kb = [ 4; 8; 16; 32 ]) ?jobs ppf cfg =
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let rows =
    par_variants ?jobs
      (fun kb ->
        let input = Workload.idea_plaintext ~seed:(200 + kb) ~bytes:(kb * 1024) in
        [
          Runner.idea_sw cfg ~key ~input;
          Runner.idea_normal cfg ~key ~input;
          Runner.idea_vim cfg ~key ~input;
        ])
      sizes_kb
  in
  Report.print_table
    ~title:
      "== Figure 9: IDEA execution times (SW vs normal coprocessor vs \
       VIM-based) =="
    ppf rows;
  Report.bar_chart ~title:"(stacked bars, as in the paper's Figure 9)"
    ~baseline_version:"SW" ppf rows;
  rows

(* {1 Overhead claims} *)

type overheads = {
  adpcm_imu_share_max : float;
  idea_translation_share : float;
  dp_share_of_overhead : float;
}

let overheads ppf cfg =
  let f8 = fig8 null_formatter cfg in
  let f9 = fig9 null_formatter cfg in
  let ms = Simtime.to_ms in
  let adpcm_imu_share_max =
    List.fold_left
      (fun acc (r : Report.row) ->
        if r.Report.version = "VIM" && r.Report.outcome = Report.Measured then
          Float.max acc (ms r.Report.sw_imu /. ms r.Report.total)
        else acc)
      0.0 f8
  in
  let idea_translation_share =
    (* Compare hardware time with and without translation at a size both
       versions can run (8 KB). *)
    let find version kb =
      List.find_opt
        (fun (r : Report.row) ->
          r.Report.version = version && r.Report.input_bytes = kb * 1024
          && r.Report.outcome = Report.Measured)
        f9
    in
    match (find "VIM" 8, find "NORMAL" 8) with
    | Some v, Some n when ms v.Report.hw > 0.0 ->
      (ms v.Report.hw -. ms n.Report.hw) /. ms v.Report.hw
    | _ -> 0.0
  in
  let dp_share_of_overhead =
    let dp, rest =
      List.fold_left
        (fun (dp, rest) (r : Report.row) ->
          if r.Report.version = "VIM" && r.Report.outcome = Report.Measured then
            ( dp +. ms r.Report.sw_dp,
              rest +. ms r.Report.sw_imu +. ms r.Report.sw_os )
          else (dp, rest))
        (0.0, 0.0) (f8 @ f9)
    in
    if dp +. rest > 0.0 then dp /. (dp +. rest) else 0.0
  in
  let o = { adpcm_imu_share_max; idea_translation_share; dp_share_of_overhead } in
  Format.fprintf ppf
    "@.== §4.1 overhead claims ==@.IMU-management share of total (max over \
     adpcm runs): %.2f%% (paper: up to 2.5%%)@.IDEA translation overhead \
     share of HW time: %.1f%% (paper: about 20%%)@.Dual-port management \
     share of software overhead: %.1f%% (paper: the largest fraction)@."
    (100.0 *. o.adpcm_imu_share_max)
    (100.0 *. o.idea_translation_share)
    (100.0 *. o.dp_share_of_overhead);
  o

(* {1 Ablations} *)

let print_labeled ppf ~title rows =
  Format.fprintf ppf "@.== %s ==@." title;
  Report.print_table ppf (List.map snd rows);
  List.iter
    (fun (label, (r : Report.row)) ->
      match r.Report.outcome with
      | Report.Measured ->
        Format.fprintf ppf "  %-28s %8.3f ms  (faults %d)@." label
          (Simtime.to_ms r.Report.total) r.Report.faults
      | Report.Exceeds_memory ->
        Format.fprintf ppf "  %-28s exceeds available memory@." label
      | Report.Degraded m ->
        Format.fprintf ppf "  %-28s degraded to software (%s)@." label m
      | Report.Failed m -> Format.fprintf ppf "  %-28s FAILED: %s@." label m)
    rows

let adpcm_8k cfg = Workload.adpcm_stream ~seed:cfg.Config.seed ~bytes:(8 * 1024)
let idea_32k cfg = Workload.idea_plaintext ~seed:cfg.Config.seed ~bytes:(32 * 1024)

let ablation_policy ?jobs ppf cfg =
  let input = adpcm_8k cfg in
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let rows =
    par_variants ?jobs
      (fun name ->
        let cfg = Config.with_policy cfg name in
        [
          ("adpcm-8KB/" ^ name, Runner.adpcm_vim cfg ~input);
          ("idea-32KB/" ^ name, Runner.idea_vim cfg ~key ~input:pt);
        ])
      Rvi_core.Policy.all_names
  in
  print_labeled ppf ~title:"Ablation: replacement policy (§3.3)" rows;
  rows

let ablation_prefetch ?jobs ppf cfg =
  let input = adpcm_8k cfg in
  let variants =
    [
      ("off", Rvi_core.Prefetch.off);
      ("sequential-1", Rvi_core.Prefetch.sequential ~depth:1);
      ("sequential-2", Rvi_core.Prefetch.sequential ~depth:2);
    ]
  in
  let rows =
    par_variants ?jobs
      (fun (label, prefetch) ->
        let cfg = { cfg with Config.prefetch } in
        [ ("adpcm-8KB/prefetch-" ^ label, Runner.adpcm_vim cfg ~input) ])
      variants
  in
  print_labeled ppf ~title:"Ablation: page prefetching (§3.3)" rows;
  rows

let ablation_pipelined_imu ?jobs ppf cfg =
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let input = adpcm_8k cfg in
  let rows =
    par_variants ?jobs
      (fun kind ->
        let cfg = { cfg with Config.imu_kind = kind } in
        let label = Config.imu_kind_name kind in
        [
          ("idea-32KB/" ^ label, Runner.idea_vim cfg ~key ~input:pt);
          ("adpcm-8KB/" ^ label, Runner.adpcm_vim cfg ~input);
        ])
      [ Config.Four_cycle; Config.Pipelined ]
  in
  print_labeled ppf
    ~title:"Ablation: pipelined IMU (the paper's announced follow-up, §4.1)"
    rows;
  rows

let ablation_transfer ?jobs ppf cfg =
  let input = adpcm_8k cfg in
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let rows =
    par_variants ?jobs
      (fun (label, transfer) ->
        let cfg = { cfg with Config.transfer } in
        [
          ("adpcm-8KB/" ^ label, Runner.adpcm_vim cfg ~input);
          ("idea-32KB/" ^ label, Runner.idea_vim cfg ~key ~input:pt);
        ])
      [ ("double", Rvi_core.Vim.Double); ("single", Rvi_core.Vim.Single) ]
  in
  print_labeled ppf
    ~title:"Ablation: page transfer mode (naive double vs announced single, §4.1)"
    rows;
  rows

let ablation_tlb_size ?jobs ppf cfg =
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let rows =
    par_variants ?jobs
      (fun entries ->
        let cfg = { cfg with Config.tlb_entries = Some entries } in
        [ (entries, Runner.idea_vim cfg ~key ~input:pt) ])
      [ 2; 4; 8 ]
  in
  print_labeled ppf ~title:"Ablation: TLB size (entries vs refill faults)"
    (List.map (fun (n, r) -> (Printf.sprintf "idea-32KB/tlb-%d" n, r)) rows);
  rows

let portability ?jobs ppf cfg =
  let input = adpcm_8k cfg in
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let rows =
    par_variants ?jobs
      (fun device ->
        let cfg = { cfg with Config.device } in
        let name = device.Device.name in
        [
          ("adpcm-8KB/" ^ name, Runner.adpcm_vim cfg ~input);
          ("idea-32KB/" ^ name, Runner.idea_vim cfg ~key ~input:pt);
        ])
      Device.all
  in
  print_labeled ppf
    ~title:
      "Portability: identical application and coprocessor across devices \
       (§4: only the kernel module is recompiled)"
    rows;
  rows

let ablation_chunked_normal ppf cfg =
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let input = Workload.idea_plaintext ~seed:cfg.Config.seed ~bytes:(16 * 1024) in
  let vim_row = Runner.idea_vim cfg ~key ~input in
  let plain_row = Runner.idea_normal cfg ~key ~input in
  (* The hand-written chunking loop of Figure 3: split into 4 KB pieces. *)
  let chunked_row =
    let engine = Rvi_sim.Engine.create () in
    let cost =
      Rvi_os.Cost_model.default
        ~cpu_freq_hz:cfg.Config.device.Device.cpu_freq_hz
    in
    let kernel = Kernel.create ~engine ~cost () in
    let dpram = Rvi_mem.Dpram.create (Device.geometry cfg.Config.device) in
    let dport = Rvi_coproc.Dport.create ~dpram in
    let module M = Rvi_coproc.Idea_coproc.Make (Rvi_coproc.Dport) in
    let coproc = M.create dport in
    let clock =
      Clock.create engine ~name:"pld" ~freq_hz:Calibration.idea_imu_clock_hz
    in
    Clock.add clock ~divide:Calibration.idea_divide
      coproc.Rvi_coproc.Coproc.component;
    let sched = Kernel.sched kernel in
    ignore (Rvi_os.Sched.spawn sched ~name:"idea-chunked");
    ignore (Rvi_os.Sched.schedule sched);
    let n = Bytes.length input in
    let recipe = Jobs.recipe (Jobs.idea_ecb ~decrypt:false ~key input) in
    let bufs = Jobs.alloc kernel recipe.Jobs.objects in
    let chunk_bytes = 4 * 1024 in
    let chunks =
      List.init (n / chunk_bytes) (fun c ->
          let pos = c * chunk_bytes in
          let regions =
            List.map
              (fun ((o : Jobs.obj), buf) ->
                {
                  Rvi_coproc.Normal_driver.region = o.id;
                  buf = Uspace.sub buf ~pos ~len:chunk_bytes;
                  dir = o.dir;
                })
              bufs
          in
          ( regions,
            Rvi_coproc.Idea_coproc.params ~n_blocks:(chunk_bytes / 8)
              ~decrypt:false ~key ))
    in
    let base =
      {
        (Runner.run_sw cfg ~app:"idea" ~input_bytes:n ~cycles:0
           ~work:(fun () -> true))
        with
        Report.version = "CHUNKED";
        total = Simtime.zero;
        sw_app = Simtime.zero;
        verified = false;
      }
    in
    match
      Rvi_coproc.Normal_driver.run_chunked ~kernel ~dpram
        ~ahb:cfg.Config.device.Device.ahb ~clocks:[ clock ] ~dport ~coproc
        ~chunks ()
    with
    | Ok () ->
      let acct = Kernel.accounting kernel in
      {
        base with
        Report.total = Rvi_os.Accounting.total acct;
        hw = Rvi_os.Accounting.get acct Rvi_os.Accounting.Hw;
        sw_dp = Rvi_os.Accounting.get acct Rvi_os.Accounting.Sw_dp;
        verified = Jobs.verify recipe (Jobs.reader kernel bufs);
      }
    | Error e ->
      {
        base with
        Report.outcome =
          Report.Failed (Rvi_coproc.Normal_driver.error_to_string e);
      }
  in
  let rows =
    [
      ("idea-16KB/normal-plain", plain_row);
      ("idea-16KB/normal-chunked", chunked_row);
      ("idea-16KB/vim", vim_row);
    ]
  in
  print_labeled ppf
    ~title:
      "Ablation: hand-chunked normal driver vs VIM beyond the dual-port \
       memory (Figure 3's while loop)"
    rows;
  rows

let ablation_tlb_org ?jobs ppf cfg =
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let input = adpcm_8k cfg in
  let rows =
    par_variants ?jobs
      (fun org ->
        let cfg = { cfg with Config.tlb_organization = org } in
        let label = Rvi_core.Tlb.organization_name org in
        [
          ("adpcm-8KB/" ^ label, Runner.adpcm_vim cfg ~input);
          ("idea-32KB/" ^ label, Runner.idea_vim cfg ~key ~input:pt);
        ])
      [
        Rvi_core.Tlb.Fully_associative;
        Rvi_core.Tlb.Set_associative 2;
        Rvi_core.Tlb.Direct_mapped;
      ]
  in
  print_labeled ppf
    ~title:
      "Ablation: TLB organisation (the paper's CAM vs cheaper indexed arrays; conflicts show up as refill faults)"
    rows;
  rows

let ablation_dma ?jobs ppf cfg =
  let input = adpcm_8k cfg in
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let pt = idea_32k cfg in
  let rows =
    par_variants ?jobs
      (fun (label, copy_engine) ->
        let cfg = { cfg with Config.copy_engine } in
        [
          ("adpcm-8KB/" ^ label, Runner.adpcm_vim cfg ~input);
          ("idea-32KB/" ^ label, Runner.idea_vim cfg ~key ~input:pt);
        ])
      [
        ("cpu-copy", Rvi_core.Vim.Cpu);
        ("dma", Rvi_core.Vim.Dma_engine Rvi_mem.Dma.default);
      ]
  in
  print_labeled ppf
    ~title:"Ablation: page movement by CPU copies (the paper) vs DMA engine"
    rows;
  rows

let ablation_overlap ?jobs ppf cfg =
  let input = adpcm_8k cfg in
  let variants =
    [
      ("none", Rvi_core.Prefetch.off, false);
      ("sync", Rvi_core.Prefetch.sequential ~depth:2, false);
      ("overlapped", Rvi_core.Prefetch.sequential ~depth:2, true);
    ]
  in
  let rows =
    par_variants ?jobs
      (fun (label, prefetch, overlap_prefetch) ->
        let cfg = { cfg with Config.prefetch; overlap_prefetch } in
        [ ("adpcm-8KB/prefetch-" ^ label, Runner.adpcm_vim cfg ~input) ])
      variants
  in
  print_labeled ppf
    ~title:
      "Ablation: overlapping prefetch transfers with coprocessor execution \
       (§4.1 future work)"
    rows;
  rows

(* {1 Translation-mode ablation (IOMMU/SVA extension)} *)

type translation_point = {
  label : string;
  mode : Rvi_core.Translation_mode.t;
  row : Report.row;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  walks : int;
  walk_faults : int;
  walk_p50 : float;
  walk_p95 : float;
}

(* Each variant runs through a private single-entry pool so the platform
   survives the run and its hardware counters — TLB hit/miss at both
   levels, the walker's latency histogram — can be peeked afterwards. *)
let translation_workloads ~smoke cfg =
  let adpcm =
    let input = adpcm_8k cfg in
    ( "adpcm-8KB",
      "adpcmdecode",
      fun pool cfg -> Runner.adpcm_vim ~pool cfg ~input )
  in
  let idea =
    let key = Workload.idea_key ~seed:cfg.Config.seed in
    let pt = idea_32k cfg in
    ("idea-32KB", "idea", fun pool cfg -> Runner.idea_vim ~pool cfg ~key ~input:pt)
  in
  let fir =
    let coeffs = Workload.fir_coeffs ~taps:16 in
    let shift = 12 in
    let input = Workload.fir_signal ~seed:cfg.Config.seed ~bytes:(16 * 1024) in
    ("fir-16KB", "fir", fun pool cfg -> Runner.fir_vim ~pool cfg ~coeffs ~shift ~input)
  in
  let vecadd =
    let a, b = Workload.vectors ~seed:cfg.Config.seed ~n:2048 in
    ("vecadd-2048", "vecadd", fun pool cfg -> Runner.vecadd_vim ~pool cfg ~a ~b)
  in
  if smoke then [ adpcm ] else [ adpcm; idea; fir; vecadd ]

let ablation_translation ?jobs ?(smoke = false) ppf cfg =
  let variants =
    List.concat_map
      (fun wl ->
        List.map (fun mode -> (wl, mode)) Rvi_core.Translation_mode.all)
      (translation_workloads ~smoke cfg)
  in
  let points =
    par_variants ?jobs
      (fun ((name, app_key, run), mode) ->
        let cfg = { cfg with Config.translation = mode } in
        let pool = Platform.Pool.create () in
        let row = run pool cfg in
        let l1_hits, l1_misses, l2_hits, l2_misses, walks, walk_faults, p50, p95
            =
          match Platform.Pool.find pool ~key:app_key with
          | None -> (0, 0, 0, 0, 0, 0, 0.0, 0.0)
          | Some p ->
            let imu = p.Platform.imu in
            let get tlb n = Rvi_sim.Stats.get (Rvi_core.Tlb.stats tlb) n in
            let l1 = Rvi_core.Imu.tlb imu in
            let l2h, l2m =
              match Rvi_core.Imu.l2 imu with
              | Some l2 -> (get l2 "hits", get l2 "misses")
              | None -> (0, 0)
            in
            let walks, walk_faults, p50, p95 =
              match Rvi_core.Imu.walker imu with
              | Some w ->
                let ws = Rvi_core.Walker.stats w in
                let p50, p95 =
                  match Rvi_sim.Stats.summary ws "walk_cycles" with
                  | Some s -> (s.Rvi_sim.Stats.p50, s.Rvi_sim.Stats.p95)
                  | None -> (0.0, 0.0)
                in
                (Rvi_sim.Stats.get ws "walks", Rvi_sim.Stats.get ws "walk_faults", p50, p95)
              | None -> (0, 0, 0.0, 0.0)
            in
            (get l1 "hits", get l1 "misses", l2h, l2m, walks, walk_faults, p50, p95)
        in
        [
          {
            label =
              Printf.sprintf "%s/%s" name (Rvi_core.Translation_mode.name mode);
            mode;
            row;
            l1_hits;
            l1_misses;
            l2_hits;
            l2_misses;
            walks;
            walk_faults;
            walk_p50 = p50;
            walk_p95 = p95;
          };
        ])
      variants
  in
  Format.fprintf ppf
    "@.== Ablation: address translation — paper objects vs IOMMU/SVA \
     (two-level TLB + page-table walker) ==@.";
  Format.fprintf ppf
    "  %-26s %10s %7s %9s %8s %8s %6s %11s %s@." "workload/mode" "total ms"
    "faults" "flt/1k-ac" "L1 hit%" "L2 hit%" "walks" "walk p50/95" "ok";
  List.iter
    (fun pt ->
      let r = pt.row in
      match r.Report.outcome with
      | Report.Measured | Report.Degraded _ ->
        let pct h m = if h + m = 0 then 0.0 else 100.0 *. float h /. float (h + m) in
        let per_1k =
          if r.Report.accesses = 0 then 0.0
          else 1000.0 *. float r.Report.faults /. float r.Report.accesses
        in
        Format.fprintf ppf
          "  %-26s %10.3f %7d %9.2f %8.2f %8.2f %6d %5.0f/%-5.0f %s@."
          pt.label
          (Simtime.to_ms r.Report.total)
          r.Report.faults per_1k
          (pct pt.l1_hits pt.l1_misses)
          (pct pt.l2_hits pt.l2_misses)
          pt.walks pt.walk_p50 pt.walk_p95
          (if r.Report.verified then "yes" else "NO")
      | Report.Exceeds_memory ->
        Format.fprintf ppf "  %-26s exceeds available memory@." pt.label
      | Report.Failed m -> Format.fprintf ppf "  %-26s FAILED: %s@." pt.label m)
    points;
  Format.fprintf ppf
    "(SVA pays walker latency on cold pages but drops the per-object map \
     syscalls; paper mode is byte-identical to the pre-SVA system)@.";
  points

(* {1 Extensions beyond the paper} *)

let ext_fir ?(sizes_kb = [ 4; 16; 32 ]) ?jobs ppf cfg =
  let coeffs = Workload.fir_coeffs ~taps:16 in
  let shift = 12 in
  let rows =
    par_variants ?jobs
      (fun kb ->
        let input = Workload.fir_signal ~seed:(300 + kb) ~bytes:(kb * 1024) in
        [
          Runner.fir_sw cfg ~coeffs ~shift ~input;
          Runner.fir_normal cfg ~coeffs ~shift ~input;
          Runner.fir_vim cfg ~coeffs ~shift ~input;
        ])
      sizes_kb
  in
  Report.print_table
    ~title:
      "== Extension: 16-tap FIR filter (third application, all three \
       versions) =="
    ppf rows;
  Report.bar_chart ~title:"(stacked bars)" ~baseline_version:"SW" ppf rows;
  rows

type miss_curve = {
  refs : int;
  frames_available : int;
  lru : int array;
  fifo_at_available : int;
  measured_faults : int;
}

let miss_curve ppf cfg =
  let input = adpcm_8k cfg in
  let p =
    Platform.create ~app_name:"mrc" cfg
      ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.Virtual.create
  in
  let collect = Mrc.record p.Platform.imu in
  let recipe = Jobs.recipe (Jobs.Adpcm_in input) in
  let ok = function
    | Ok () -> ()
    | Error _ -> failwith "miss_curve: setup failed"
  in
  ok (Rvi_core.Api.fpga_load p.Platform.api Calibration.adpcm_bitstream);
  List.iter
    (fun ((o : Jobs.obj), buf) ->
      ok
        (Rvi_core.Api.fpga_map_object p.Platform.api ~id:o.id ~buf ~dir:o.dir
           ~stream:o.stream ()))
    (Jobs.alloc p.Platform.kernel recipe.Jobs.objects);
  ok (Rvi_core.Api.fpga_execute p.Platform.api ~params:recipe.Jobs.params);
  let refs = collect () in
  let frames_available = Rvi_mem.Dpram.n_pages p.Platform.dpram in
  let lru = Mrc.lru_misses refs ~max_frames:16 in
  let fifo_at_available = Mrc.fifo_misses refs ~frames:frames_available in
  let vstats = Rvi_core.Vim.stats p.Platform.vim in
  let measured_faults = Rvi_sim.Stats.get vstats "faults" in
  let premapped = Rvi_sim.Stats.get vstats "premapped" in
  let c =
    {
      refs = Array.length refs;
      frames_available;
      lru;
      fifo_at_available;
      measured_faults;
    }
  in
  Format.fprintf ppf
    "@.== Extension: miss-ratio curve of adpcm-8KB (Mattson stack analysis \
     over the IMU access trace) ==@.%d page references over %d distinct \
     pages; device has %d frames (one holds parameters).@."
    c.refs
    (Mrc.distinct_pages refs)
    frames_available;
  Mrc.pp_curve ppf ~frames_available ~lru ~refs:c.refs;
  Format.fprintf ppf
    "An ideal demand pager at %d frames would take %d placements (the curve); \
     the shipped VIM performed %d (%d pre-mapped + %d demand faults). The \
     gap is the cost of eager FIFO placement on this trace — precisely the \
     'efficient allocation algorithms' the paper's conclusion calls for.@."
    frames_available
    lru.(min (Array.length lru) frames_available - 1)
    (premapped + measured_faults) premapped measured_faults;
  (match Rvi_sim.Stats.summary vstats "fault_service_us" with
  | Some s ->
    Format.fprintf ppf
      "Fault service latency: %.1f us mean (%.1f min / %.1f max over %d \
       faults) — interrupt entry, decode, page movement, TLB refill, \
       resume.@."
      s.Rvi_sim.Stats.mean s.Rvi_sim.Stats.min s.Rvi_sim.Stats.max
      s.Rvi_sim.Stats.count
  | None -> ());
  c

(* Custom EPXA1 variants for the geometry sweeps. *)
let custom_device ~page_size ~dpram_bytes =
  {
    Rvi_fpga.Device.epxa1 with
    Rvi_fpga.Device.name =
      Printf.sprintf "EPXA1/%dB-pages-%dKB" page_size (dpram_bytes / 1024);
    page_size;
    dpram_bytes;
  }

let sweep_page_size ppf cfg =
  let input = adpcm_8k cfg in
  let rows =
    List.map
      (fun page_size ->
        let device = custom_device ~page_size ~dpram_bytes:(16 * 1024) in
        let cfg = { cfg with Config.device } in
        (page_size, Runner.adpcm_vim cfg ~input))
      [ 512; 1024; 2048; 4096 ]
  in
  Format.fprintf ppf
    "@.== Sweep: page size at a fixed 16 KB dual-port memory (adpcm-8KB) ==@.%8s %8s %10s %8s %10s %10s@." "page" "frames" "total(ms)" "faults"
    "SWdp(ms)" "SWimu(ms)";
  List.iter
    (fun (page_size, (r : Report.row)) ->
      Format.fprintf ppf "%7dB %8d %10.3f %8d %10.3f %10.3f@." page_size
        ((16 * 1024) / page_size)
        (Simtime.to_ms r.Report.total)
        r.Report.faults
        (Simtime.to_ms r.Report.sw_dp)
        (Simtime.to_ms r.Report.sw_imu))
    rows;
  Format.fprintf ppf
    "(small pages trade copy volume for fault-service overhead; large pages the reverse — the classic VM granularity trade-off on the interface memory)@.";
  rows

let sweep_memory_size ppf cfg =
  let input = adpcm_8k cfg in
  let rows =
    List.map
      (fun kb ->
        let device = custom_device ~page_size:2048 ~dpram_bytes:(kb * 1024) in
        let cfg = { cfg with Config.device } in
        (kb, Runner.adpcm_vim cfg ~input))
      [ 4; 8; 16; 32; 64 ]
  in
  Format.fprintf ppf
    "@.== Sweep: dual-port memory size at fixed 2 KB pages (adpcm-8KB) ==@.%8s %8s %10s %8s %10s@." "memory" "frames" "total(ms)" "faults"
    "SWdp(ms)";
  List.iter
    (fun (kb, (r : Report.row)) ->
      Format.fprintf ppf "%6dKB %8d %10.3f %8d %10.3f@." kb (kb / 2)
        (Simtime.to_ms r.Report.total)
        r.Report.faults
        (Simtime.to_ms r.Report.sw_dp))
    rows;
  rows

let ext_cbc ppf cfg =
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  let iv = Array.init 4 (fun i -> (cfg.Config.seed + i) land 0xFFFF) in
  let input = Workload.idea_plaintext ~seed:cfg.Config.seed ~bytes:(8 * 1024) in
  let rows =
    List.map
      (fun mode -> Runner.idea_cbc_vim cfg ~mode ~key ~iv ~input)
      Rvi_coproc.Idea_coproc.
        [ Ecb_encrypt; Ecb_decrypt; Cbc_encrypt; Cbc_decrypt ]
  in
  Report.print_table
    ~title:
      "== Extension: block-cipher modes on the 3-stage pipeline (CBC \
       encryption is a recurrence and serialises it; CBC decryption still \
       pipelines) =="
    ppf rows;
  rows

(* Two coprocessors (adpcmdecode + FIR) behind one IMU via the arbiter,
   sharing the paged dual-port memory and one unchanged VIM. *)
let ext_dual_on ppf cfg =
  let adpcm_input = Workload.adpcm_stream ~seed:cfg.Config.seed ~bytes:(4 * 1024) in
  let fir_input = Workload.fir_signal ~seed:cfg.Config.seed ~bytes:(12 * 1024) in
  let coeffs = Workload.fir_coeffs ~taps:16 in
  let shift = 12 in
  let adpcm = Jobs.recipe (Jobs.Adpcm_in adpcm_input) in
  let fir = Jobs.recipe (Jobs.Fir_in { coeffs; shift; data = fir_input }) in
  (* Serial baseline: the two kernels one after the other. *)
  let serial_adpcm = Runner.adpcm_vim cfg ~input:adpcm_input in
  let serial_fir = Runner.fir_vim cfg ~coeffs ~shift ~input:fir_input in
  let serial_ms =
    Simtime.to_ms serial_adpcm.Report.total +. Simtime.to_ms serial_fir.Report.total
  in
  (* Concurrent run. *)
  let engine = Rvi_sim.Engine.create () in
  let cost =
    Rvi_os.Cost_model.default ~cpu_freq_hz:cfg.Config.device.Device.cpu_freq_hz
  in
  let kernel = Kernel.create ~engine ~cost ~sdram_bytes:(4 * 1024 * 1024) () in
  let dpram = Rvi_mem.Dpram.create (Device.geometry cfg.Config.device) in
  let pld = Rvi_fpga.Pld.create cfg.Config.device in
  let port = Rvi_core.Cp_port.create () in
  let imu =
    Rvi_core.Imu.create ~config:(Config.imu_config cfg) ~port ~dpram
      ~raise_irq:(fun () -> Rvi_os.Irq.raise_line (Kernel.irq kernel) ~line:0)
      ()
  in
  let clock =
    Clock.create engine ~name:"pld" ~freq_hz:Calibration.adpcm_clock_hz
  in
  let vim =
    Rvi_core.Vim.create ~kernel ~dpram ~imu ~ahb:cfg.Config.device.Device.ahb
      ~clocks:[ clock ] (Config.vim_config cfg)
  in
  let api = Rvi_core.Api.install ~kernel ~vim ~pld in
  let arbiter = Rvi_coproc.Arbiter.create ~upstream:port ~children:2 in
  (* The adpcm child keeps its object ids; the FIR child's are remapped
     into 2/3/4 by a thin shim, exactly the renumbering the two hardware
     designers would agree on. *)
  let vport_a = Rvi_coproc.Vport.create (Rvi_coproc.Arbiter.child_port arbiter 0) in
  let module MA = Rvi_coproc.Adpcm_coproc.Make (Rvi_coproc.Vport) in
  let coproc_a = MA.create vport_a in
  let module Fir_shifted = struct
    include Rvi_coproc.Vport

    let issue t ~region ~addr ~wr ~width ~data =
      let region =
        if region = Rvi_core.Cp_port.param_obj then region else region + 2
      in
      issue t ~region ~addr ~wr ~width ~data
  end in
  let vport_b = Rvi_coproc.Vport.create (Rvi_coproc.Arbiter.child_port arbiter 1) in
  let module MB = Rvi_coproc.Fir_coproc.Make (Fir_shifted) in
  let coproc_b = MB.create vport_b in
  Clock.add clock (Rvi_core.Imu.component imu);
  Clock.add clock (Rvi_coproc.Arbiter.component arbiter);
  Clock.add clock (Rvi_coproc.Vport.sync_component vport_a);
  Clock.add clock (Rvi_coproc.Vport.sync_component vport_b);
  Clock.add clock coproc_a.Rvi_coproc.Coproc.component;
  Clock.add clock coproc_b.Rvi_coproc.Coproc.component;
  let sched = Kernel.sched kernel in
  ignore (Rvi_os.Sched.spawn sched ~name:"dual");
  ignore (Rvi_os.Sched.schedule sched);
  let bufs_a = Jobs.alloc kernel adpcm.Jobs.objects in
  let bufs_f = Jobs.alloc kernel fir.Jobs.objects in
  let dual_bitstream =
    Rvi_fpga.Bitstream.make ~name:"adpcm+fir" ~logic_elements:4_100
      ~imu_freq_hz:Calibration.adpcm_clock_hz
      ~param_words:(2 * Rvi_coproc.Arbiter.slot_words)
      ()
  in
  let ok = function
    | Ok () -> ()
    | Error _ -> failwith "ext_dual: setup failed"
  in
  ok (Rvi_core.Api.fpga_load api dual_bitstream);
  (* Every object is declared streaming here, the coefficient table
     included; the FIR child's ids go through the shim's +2. *)
  let map ~id_base bufs =
    List.iter
      (fun ((o : Jobs.obj), buf) ->
        ok
          (Rvi_core.Api.fpga_map_object api ~id:(id_base + o.id) ~buf ~dir:o.dir
             ~stream:true ()))
      bufs
  in
  map ~id_base:0 bufs_a;
  map ~id_base:2 bufs_f;
  Rvi_os.Accounting.reset (Kernel.accounting kernel);
  let t0 = Kernel.now kernel in
  let params =
    (* slot 0: adpcm; slot 1: fir *)
    let pad slot = slot @ List.init (Rvi_coproc.Arbiter.slot_words - List.length slot) (fun _ -> 0) in
    pad adpcm.Jobs.params @ pad fir.Jobs.params
  in
  ok (Rvi_core.Api.fpga_execute api ~params);
  let dual_ms = Simtime.to_ms (Simtime.sub (Kernel.now kernel) t0) in
  let adpcm_ok = Jobs.verify adpcm (Jobs.reader kernel bufs_a) in
  let fir_ok = Jobs.verify fir (Jobs.reader kernel bufs_f) in
  let grants = Rvi_coproc.Arbiter.grants arbiter in
  Format.fprintf ppf
    "%-8s serial %.3f ms, concurrent %.3f ms (%.2fx); grants adpcm %d / fir %d; outputs %s@."
    cfg.Config.device.Device.name serial_ms dual_ms (serial_ms /. dual_ms)
    grants.(0) grants.(1)
    (if adpcm_ok && fir_ok then "bit-exact" else "WRONG");
  (serial_ms, dual_ms, adpcm_ok && fir_ok)

let ext_dual ppf cfg =
  Format.fprintf ppf
    "@.== Extension: two coprocessors behind one IMU (arbiter): adpcm-4KB + fir-12KB ==@.";
  let r1 = ext_dual_on ppf cfg in
  let r4 = ext_dual_on ppf { cfg with Config.device = Rvi_fpga.Device.epxa4 } in
  Format.fprintf ppf
    "(on the EPXA1 the two working sets thrash the 16 KB memory and eat the \
     concurrency; with the EPXA4's 64 KB both kernels fit and the shared \
     port pays off — same binaries, same VIM)@.";
  ignore r4;
  r1

(* Profile-guided optimal replacement: record the reference string once,
   then replay the same workload under Belady's choices. The workload is
   the adversarial classic — vector add cycles through three pages (A, B,
   C) while a shrunken device offers only two data frames, where FIFO and
   LRU thrash and the clairvoyant policy wins. *)
let ext_oracle ppf cfg =
  let n = 512 in
  let a, b = Workload.vectors ~seed:cfg.Config.seed ~n in
  let device =
    { cfg.Config.device with Rvi_fpga.Device.dpram_bytes = 4 * 1024; name = "TINY4" }
  in
  let cfg = { cfg with Config.device; eager_mapping = false } in
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
  let run ?policy ?record () =
    let engine = Rvi_sim.Engine.create () in
    let cost =
      Rvi_os.Cost_model.default ~cpu_freq_hz:cfg.Config.device.Device.cpu_freq_hz
    in
    let kernel = Kernel.create ~engine ~cost ~sdram_bytes:(1024 * 1024) () in
    let dpram = Rvi_mem.Dpram.create (Device.geometry cfg.Config.device) in
    let port = Rvi_core.Cp_port.create () in
    let imu =
      Rvi_core.Imu.create ~config:(Config.imu_config cfg) ~port ~dpram
        ~raise_irq:(fun () -> Rvi_os.Irq.raise_line (Kernel.irq kernel) ~line:0)
        ()
    in
    let position = ref 0 in
    let collected = ref [] in
    Rvi_core.Imu.set_trace imu
      (Some
         (fun e ->
           incr position;
           if record = Some true then
             collected := (e.Rvi_core.Imu.obj_id, e.Rvi_core.Imu.vpn) :: !collected));
    let vim_cfg =
      {
        (Config.vim_config cfg) with
        Rvi_core.Vim.policy =
          (match policy with
          | Some make -> make ~position:(fun () -> !position)
          | None -> Rvi_core.Policy.fifo ());
      }
    in
    let clock =
      Clock.create engine ~name:"pld" ~freq_hz:Calibration.adpcm_clock_hz
    in
    let vim =
      Rvi_core.Vim.create ~kernel ~dpram ~imu ~ahb:cfg.Config.device.Device.ahb
        ~clocks:[ clock ] vim_cfg
    in
    let pld = Rvi_fpga.Pld.create cfg.Config.device in
    let api = Rvi_core.Api.install ~kernel ~vim ~pld in
    let vport, coproc = Rvi_coproc.Vecadd.Virtual.create port in
    Clock.add clock (Rvi_core.Imu.component imu);
    Clock.add clock (Rvi_coproc.Vport.sync_component vport);
    Clock.add clock coproc.Rvi_coproc.Coproc.component;
    let sched = Kernel.sched kernel in
    ignore (Rvi_os.Sched.spawn sched ~name:"oracle");
    ignore (Rvi_os.Sched.schedule sched);
    let buf_a = Uspace.of_bytes kernel (to_bytes a) in
    let buf_b = Uspace.of_bytes kernel (to_bytes b) in
    let buf_c = Uspace.alloc kernel (4 * n) in
    let ok = function Ok () -> () | Error _ -> failwith "ext_oracle: run" in
    ok (Rvi_core.Api.fpga_load api Calibration.vecadd_bitstream);
    ok
      (Rvi_core.Api.fpga_map_object api ~id:0 ~buf:buf_a
         ~dir:Rvi_core.Mapped_object.In ());
    ok
      (Rvi_core.Api.fpga_map_object api ~id:1 ~buf:buf_b
         ~dir:Rvi_core.Mapped_object.In ());
    ok
      (Rvi_core.Api.fpga_map_object api ~id:2 ~buf:buf_c
         ~dir:Rvi_core.Mapped_object.Out ());
    ok (Rvi_core.Api.fpga_execute api ~params:[ n ]);
    let verified =
      Bytes.equal (Uspace.read kernel buf_c)
        (to_bytes (Rvi_coproc.Vecadd.reference ~a ~b))
    in
    ( Rvi_sim.Stats.get (Rvi_core.Vim.stats vim) "faults",
      verified,
      Array.of_list (List.rev !collected) )
  in
  let _, _, profile_trace = run ~record:true () in
  let results =
    [
      ("fifo", run ~policy:(fun ~position:_ -> Rvi_core.Policy.fifo ()) ());
      ("lru", run ~policy:(fun ~position:_ -> Rvi_core.Policy.lru ()) ());
      ( "oracle",
        run
          ~policy:(fun ~position ->
            Rvi_core.Policy.oracle ~trace:profile_trace ~position)
          () );
    ]
  in
  let opt_bound = Mrc.opt_misses profile_trace ~frames:2 in
  Format.fprintf ppf
    "@.== Extension: profile-guided optimal replacement (vecadd-512, 3 \
     cycling pages over 2 data frames, demand paging) ==@.%10s %10s %10s@."
    "policy" "faults" "verified";
  List.iter
    (fun (name, (faults, verified, _)) ->
      Format.fprintf ppf "%10s %10d %10b@." name faults verified)
    results;
  Format.fprintf ppf
    "analytic OPT bound at 2 data frames: %d misses — the oracle reaches \
     Belady's decisions live from a trace recorded on a previous run of \
     the same workload (the reference string is policy-independent).@."
    opt_bound;
  (List.map (fun (name, (f, v, _)) -> (name, (f, v))) results, opt_bound)

let sensitivity ?jobs ppf cfg =
  (* The AHB cost per uncached word is the least-certain calibration
     constant; sweep it across a 4x range and check that no conclusion
     flips: the VIM stays ahead of software and behind the normal
     coprocessor where the latter can run at all. *)
  let rows =
    par_variants ?jobs
      (fun cycles_per_word ->
        let ahb =
          Rvi_mem.Ahb.make ~word_bytes:4 ~setup_cycles:120 ~cycles_per_word
        in
        let device = { Rvi_fpga.Device.epxa1 with Rvi_fpga.Device.ahb } in
        let cfg = { cfg with Config.device } in
        let input = adpcm_8k cfg in
        let a_sw = Runner.adpcm_sw cfg ~input in
        let a_vim = Runner.adpcm_vim cfg ~input in
        let key = Workload.idea_key ~seed:cfg.Config.seed in
        let pt = Workload.idea_plaintext ~seed:cfg.Config.seed ~bytes:(8 * 1024) in
        let i_sw = Runner.idea_sw cfg ~key ~input:pt in
        let i_nrm = Runner.idea_normal cfg ~key ~input:pt in
        let i_vim = Runner.idea_vim cfg ~key ~input:pt in
        [ (cycles_per_word, (a_sw, a_vim), (i_sw, i_nrm, i_vim)) ])
      [ 10; 20; 40 ]
  in
  Format.fprintf ppf
    "@.== Sensitivity: AHB cycles per uncached word (calibrated value 20) ==@.%10s %16s %16s %16s@." "cyc/word" "adpcm-8KB VIM" "idea-8KB NORMAL"
    "idea-8KB VIM";
  List.iter
    (fun (cpw, (a_sw, a_vim), (i_sw, i_nrm, i_vim)) ->
      let spd b r =
        match Report.speedup ~baseline:b r with
        | Some s -> Printf.sprintf "%.2fx" s
        | None -> "-"
      in
      Format.fprintf ppf "%10d %16s %16s %16s@." cpw (spd a_sw a_vim)
        (spd i_sw i_nrm) (spd i_sw i_vim))
    rows;
  Format.fprintf ppf
    "(the orderings SW < VIM and VIM < NORMAL hold across the whole range)@.";
  rows

let all ?jobs ~multiprog ppf cfg =
  ignore (fig7 ppf ());
  ignore (fig7 ~pipelined:true ppf ());
  ignore (fig8 ?jobs ppf cfg);
  ignore (fig9 ?jobs ppf cfg);
  ignore (overheads ppf cfg);
  ignore (ablation_policy ?jobs ppf cfg);
  ignore (ablation_prefetch ?jobs ppf cfg);
  ignore (ablation_pipelined_imu ?jobs ppf cfg);
  ignore (ablation_transfer ?jobs ppf cfg);
  ignore (ablation_tlb_size ?jobs ppf cfg);
  ignore (portability ?jobs ppf cfg);
  ignore (ablation_chunked_normal ppf cfg);
  ignore (ablation_dma ?jobs ppf cfg);
  ignore (ablation_overlap ?jobs ppf cfg);
  ignore (ablation_tlb_org ?jobs ppf cfg);
  ignore (ablation_translation ?jobs ppf cfg);
  ignore (ext_fir ?jobs ppf cfg);
  ignore (miss_curve ppf cfg);
  ignore (ext_cbc ppf cfg);
  multiprog ppf cfg;
  ignore (sweep_page_size ppf cfg);
  ignore (sweep_memory_size ppf cfg);
  ignore (ext_dual ppf cfg);
  ignore (ext_oracle ppf cfg);
  ignore (sensitivity ?jobs ppf cfg)
