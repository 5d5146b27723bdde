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

(* A virtual platform for one application of the registry, for the
   experiments that probe the hardware while a request runs. *)
let platform ?sdram_bytes cfg kind =
  Platform.create ~app_name:(Jobs.label kind) ?sdram_bytes cfg
    ~bitstream:(Jobs.bitstream kind) ~make:(Jobs.make_virtual kind)

let ok = function
  | Ok () -> ()
  | Error e -> failwith ("Experiments: " ^ Rvi_os.Syscall.errno_name e)

(* FPGA_LOAD, FPGA_MAP_OBJECT of every object of the request's recipe and
   one FPGA_EXECUTE on [p], as Figure 6 does; true when the output matches
   the software reference. *)
let execute p input =
  let api = p.Platform.api in
  let r = Jobs.recipe input in
  ok (Rvi_core.Api.fpga_load api (Jobs.bitstream (Jobs.kind input)));
  let bufs = Jobs.alloc p.Platform.kernel r.Jobs.objects in
  List.iter
    (fun ((o : Jobs.obj), buf) ->
      ok (Rvi_core.Api.fpga_map_object api ~id:o.id ~buf ~dir:o.dir ~stream:o.stream ()))
    bufs;
  ok (Rvi_core.Api.fpga_execute api ~params:r.Jobs.params);
  Jobs.verify p.Platform.kernel bufs r

(* {1 Figure 7} *)

type fig7 = { waveform : string; vcd : string; latency_cycles : int }

let fig7 ppf cfg =
  let p = platform cfg Jobs.Vecadd in
  let wave = Platform.trace p in
  ignore (execute p (Jobs.generate Jobs.Vecadd ~seed:7 ~bytes:32));
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
    (fst (List.find (fun (_, k) -> k = cfg.Config.imu_kind) Config.imu_kinds))
    waveform latency;
  { waveform; vcd; latency_cycles = latency }

(* {1 Figures 8 and 9} *)

(* One row per implementation for each input size, printed as the table
   and the stacked bars of Figures 8 and 9. *)
let figure ?jobs ppf ~title ~bars cfg impls input sizes_kb =
  let rows =
    par_variants ?jobs
      (fun kb ->
        let input = input kb in
        List.map (fun impl -> Runner.run cfg impl input) impls)
      sizes_kb
  in
  Report.print_table ~title ppf rows;
  Report.bar_chart ~title:bars ~baseline_version:"SW" ppf rows;
  rows

let fig8 ?(sizes_kb = [ 2; 4; 8 ]) ?jobs ppf cfg =
  figure ?jobs ppf cfg
    ~title:"== Figure 8: adpcmdecode execution times (SW vs VIM-based) =="
    ~bars:"(stacked bars, as in the paper's Figure 8)" Runner.[ Sw; Vim ]
    (fun kb -> Jobs.generate Jobs.Adpcm ~seed:(100 + kb) ~bytes:(kb * 1024))
    sizes_kb

let fig9 ?(sizes_kb = [ 4; 8; 16; 32 ]) ?jobs ppf cfg =
  (* Not [Jobs.generate]: the key follows the configuration's seed while
     each size's plaintext follows its own. *)
  let key = Workload.idea_key ~seed:cfg.Config.seed in
  figure ?jobs ppf cfg
    ~title:
      "== Figure 9: IDEA execution times (SW vs normal coprocessor vs \
       VIM-based) =="
    ~bars:"(stacked bars, as in the paper's Figure 9)" Runner.[ Sw; Normal; Vim ]
    (fun kb ->
      Jobs.idea_ecb ~decrypt:false ~key
        (Workload.idea_plaintext ~seed:(200 + kb) ~bytes:(kb * 1024)))
    sizes_kb

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

let adpcm_8k cfg =
  ("adpcm-8KB", Jobs.generate Jobs.Adpcm ~seed:cfg.Config.seed ~bytes:(8 * 1024))

let idea_32k cfg =
  ("idea-32KB", Jobs.generate Jobs.Idea ~seed:cfg.Config.seed ~bytes:(32 * 1024))

(* One VIM run per (variant, input), variant-major: row ["input/variant"]
   runs [input] under [change cfg]. *)
let sweep ?jobs ppf ~title cfg inputs variants =
  let rows =
    par_variants ?jobs
      (fun (label, change) ->
        let cfg = change cfg in
        List.map
          (fun (name, input) ->
            (name ^ "/" ^ label, Runner.run cfg Runner.Vim input))
          inputs)
      variants
  in
  print_labeled ppf ~title rows;
  rows

let ablation_policy ?jobs ppf cfg =
  sweep ?jobs ppf ~title:"Ablation: replacement policy (§3.3)" cfg
    [ adpcm_8k cfg; idea_32k cfg ]
    (List.map (fun policy -> (policy, fun cfg -> { cfg with Config.policy }))
       Rvi_core.Policy.all_names)

let ablation_prefetch ?jobs ppf cfg =
  sweep ?jobs ppf ~title:"Ablation: page prefetching (§3.3)" cfg [ adpcm_8k cfg ]
    (List.map
       (fun prefetch ->
         ( "prefetch-" ^ Rvi_core.Prefetch.name prefetch,
           fun cfg -> { cfg with Config.prefetch } ))
       Rvi_core.Prefetch.[ off; sequential ~depth:1; sequential ~depth:2 ])

let ablation_pipelined_imu ?jobs ppf cfg =
  sweep ?jobs ppf
    ~title:"Ablation: pipelined IMU (the paper's announced follow-up, §4.1)" cfg
    [ idea_32k cfg; adpcm_8k cfg ]
    (List.map
       (fun (label, imu_kind) -> (label, fun cfg -> { cfg with Config.imu_kind }))
       Config.imu_kinds)

let ablation_transfer ?jobs ppf cfg =
  sweep ?jobs ppf
    ~title:"Ablation: page transfer mode (naive double vs announced single, §4.1)"
    cfg
    [ adpcm_8k cfg; idea_32k cfg ]
    (List.map
       (fun (label, transfer) -> (label, fun cfg -> { cfg with Config.transfer }))
       Config.transfers)

let ablation_tlb_size ?jobs ppf cfg =
  sweep ?jobs ppf ~title:"Ablation: TLB size (entries vs refill faults)" cfg
    [ idea_32k cfg ]
    (List.map
       (fun entries ->
         ( Printf.sprintf "tlb-%d" entries,
           fun cfg -> { cfg with Config.tlb_entries = Some entries } ))
       [ 2; 4; 8 ])

let portability ?jobs ppf cfg =
  sweep ?jobs ppf
    ~title:
      "Portability: identical application and coprocessor across devices \
       (§4: only the kernel module is recompiled)"
    cfg [ adpcm_8k cfg; idea_32k cfg ]
    (List.map
       (fun device -> (device.Device.name, fun cfg -> { cfg with Config.device }))
       Device.all)

let ablation_chunked_normal ppf cfg =
  let request = Jobs.generate Jobs.Idea ~seed:cfg.Config.seed ~bytes:(16 * 1024) in
  let key =
    match request with Jobs.Idea_in { key; _ } -> key | _ -> assert false
  in
  let vim_row = Runner.run cfg Runner.Vim request in
  let plain_row = Runner.run cfg Runner.Normal request in
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
    let coproc = Jobs.make_normal Jobs.Idea dport in
    let clock = Runner.normal_clock engine (Jobs.bitstream Jobs.Idea) coproc in
    let sched = Kernel.sched kernel in
    ignore (Rvi_os.Sched.spawn sched ~name:"idea-chunked");
    ignore (Rvi_os.Sched.schedule sched);
    let n = Jobs.input_bytes request in
    let recipe = Jobs.recipe request in
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
    let base = Report.empty ~app:"idea" ~version:"CHUNKED" ~input_bytes:n in
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
        verified = Jobs.verify kernel bufs recipe;
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
  sweep ?jobs ppf
    ~title:
      "Ablation: TLB organisation (the paper's CAM vs cheaper indexed arrays; conflicts show up as refill faults)"
    cfg [ adpcm_8k cfg; idea_32k cfg ]
    (List.map
       (fun org ->
         ( Rvi_core.Tlb.organization_name org,
           fun cfg -> { cfg with Config.tlb_organization = org } ))
       [
         Rvi_core.Tlb.Fully_associative;
         Rvi_core.Tlb.Set_associative 2;
         Rvi_core.Tlb.Direct_mapped;
       ])

let ablation_dma ?jobs ppf cfg =
  sweep ?jobs ppf
    ~title:"Ablation: page movement by CPU copies (the paper) vs DMA engine" cfg
    [ adpcm_8k cfg; idea_32k cfg ]
    (List.map
       (fun (label, copy_engine) -> (label, fun cfg -> { cfg with Config.copy_engine }))
       [
         ("cpu-copy", Rvi_core.Vim.Cpu);
         ("dma", Rvi_core.Vim.Dma_engine Rvi_mem.Dma.default);
       ])

let ablation_overlap ?jobs ppf cfg =
  sweep ?jobs ppf
    ~title:
      "Ablation: overlapping prefetch transfers with coprocessor execution \
       (§4.1 future work)"
    cfg [ adpcm_8k cfg ]
    (List.map
       (fun (label, prefetch, overlap_prefetch) ->
         ( "prefetch-" ^ label,
           fun cfg -> { cfg with Config.prefetch; overlap_prefetch } ))
       [
         ("none", Rvi_core.Prefetch.off, false);
         ("sync", Rvi_core.Prefetch.sequential ~depth:2, false);
         ("overlapped", Rvi_core.Prefetch.sequential ~depth:2, true);
       ])

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
  walk_p50 : float;
  walk_p95 : float;
}

let translation_workloads ~smoke cfg =
  let wl kind bytes name = (name, Jobs.generate kind ~seed:cfg.Config.seed ~bytes) in
  if smoke then [ adpcm_8k cfg ]
  else
    [
      adpcm_8k cfg;
      idea_32k cfg;
      wl Jobs.Fir (16 * 1024) "fir-16KB";
      wl Jobs.Vecadd (16 * 1024) "vecadd-2048";
    ]

let ablation_translation ?jobs ?(smoke = false) ppf cfg =
  let variants =
    List.concat_map
      (fun wl ->
        List.map (fun mode -> (wl, mode)) Rvi_core.Translation_mode.all)
      (translation_workloads ~smoke cfg)
  in
  let points =
    par_variants ?jobs
      (fun ((name, input), mode) ->
        let cfg = { cfg with Config.translation = mode } in
        let live = ref None in
        let row =
          Runner.run ~inspect:(fun p -> live := Some p) cfg Runner.Vim input
        in
        let imu = (Option.get !live).Platform.imu in
        let get tlb n = Rvi_sim.Stats.get (Rvi_core.Tlb.stats tlb) n in
        let l1 = Rvi_core.Imu.tlb imu in
        let l2_hits, l2_misses =
          match Rvi_core.Imu.l2 imu with
          | Some l2 -> (get l2 "hits", get l2 "misses")
          | None -> (0, 0)
        in
        let walks, walk_p50, walk_p95 =
          match Rvi_core.Imu.walker imu with
          | Some w ->
            let ws = Rvi_core.Walker.stats w in
            let p50, p95 =
              match Rvi_sim.Stats.summary ws "walk_cycles" with
              | Some s -> (s.Rvi_sim.Stats.p50, s.Rvi_sim.Stats.p95)
              | None -> (0.0, 0.0)
            in
            (Rvi_sim.Stats.get ws "walks", p50, p95)
          | None -> (0, 0.0, 0.0)
        in
        [
          {
            label =
              Printf.sprintf "%s/%s" name (Rvi_core.Translation_mode.name mode);
            mode;
            row;
            l1_hits = get l1 "hits";
            l1_misses = get l1 "misses";
            l2_hits;
            l2_misses;
            walks;
            walk_p50;
            walk_p95;
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
  figure ?jobs ppf cfg
    ~title:
      "== Extension: 16-tap FIR filter (third application, all three \
       versions) =="
    ~bars:"(stacked bars)" Runner.[ Sw; Normal; Vim ]
    (fun kb -> Jobs.generate Jobs.Fir ~seed:(300 + kb) ~bytes:(kb * 1024))
    sizes_kb

type miss_curve = {
  refs : int;
  frames_available : int;
  lru : int array;
  fifo_at_available : int;
  measured_faults : int;
}

let miss_curve ppf cfg =
  let _, input = adpcm_8k cfg in
  let p = platform cfg Jobs.Adpcm in
  let collect = Mrc.record p.Platform.imu in
  ignore (execute p input);
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

(* adpcm-8KB on the VIM at an EPXA1 variant of each point's (page size,
   memory size). *)
let geometry_sweep cfg geometry points =
  let _, input = adpcm_8k cfg in
  List.map
    (fun x ->
      let page_size, dpram_bytes = geometry x in
      let device =
        {
          Device.epxa1 with
          Device.name =
            Printf.sprintf "EPXA1/%dB-pages-%dKB" page_size (dpram_bytes / 1024);
          page_size;
          dpram_bytes;
        }
      in
      (x, Runner.run { cfg with Config.device } Runner.Vim input))
    points

let sweep_page_size ppf cfg =
  let rows =
    geometry_sweep cfg (fun ps -> (ps, 16 * 1024)) [ 512; 1024; 2048; 4096 ]
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
  let rows =
    geometry_sweep cfg (fun kb -> (2048, kb * 1024)) [ 4; 8; 16; 32; 64 ]
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
  let iv = Array.init 4 (fun i -> (cfg.Config.seed + i) land 0xFFFF) in
  let input = Jobs.generate Jobs.Idea ~seed:cfg.Config.seed ~bytes:(8 * 1024) in
  let rows =
    List.map
      (fun mode ->
        let input =
          match input with
          | Jobs.Idea_in r -> Jobs.Idea_in { r with mode; iv }
          | _ -> assert false
        in
        let row = Runner.run cfg Runner.Vim input in
        { row with Report.version = "VIM/" ^ Rvi_coproc.Idea_coproc.mode_name mode })
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
  let seed = cfg.Config.seed in
  let adpcm_input = Jobs.generate Jobs.Adpcm ~seed ~bytes:(4 * 1024) in
  let fir_input = Jobs.generate Jobs.Fir ~seed ~bytes:(12 * 1024) in
  let adpcm = Jobs.recipe adpcm_input in
  let fir = Jobs.recipe fir_input in
  (* Serial baseline: the two kernels one after the other. *)
  let serial_adpcm = Runner.run cfg Runner.Vim adpcm_input in
  let serial_fir = Runner.run cfg Runner.Vim fir_input in
  let serial_ms =
    Simtime.to_ms serial_adpcm.Report.total +. Simtime.to_ms serial_fir.Report.total
  in
  (* Concurrent run. *)
  let dual_bitstream =
    Rvi_fpga.Bitstream.make ~name:"adpcm+fir" ~logic_elements:4_100
      ~imu_freq_hz:Calibration.adpcm_clock_hz
      ~param_words:(2 * Rvi_coproc.Arbiter.slot_words)
      ()
  in
  (* The arbiter, the second child's synchroniser and both children tick
     behind the platform's IMU and the first child's synchroniser. The
     adpcm child keeps its object ids; the FIR child's port shifts them
     into 2/3/4, exactly the renumbering the two hardware designers would
     agree on. *)
  let arbiter = ref None in
  let make port =
    let arb = Rvi_coproc.Arbiter.create ~upstream:port ~children:2 in
    arbiter := Some arb;
    let vport_a, coproc_a =
      Jobs.make_virtual Jobs.Adpcm (Rvi_coproc.Arbiter.child_port arb 0)
    in
    let vport_b =
      Rvi_coproc.Vport.create ~region_offset:2
        (Rvi_coproc.Arbiter.child_port arb 1)
    in
    let coproc_b = Rvi_coproc.Fir_coproc.create (Rvi_coproc.Mem_port.Virtual vport_b) in
    ( vport_a,
      {
        coproc_a with
        Rvi_coproc.Coproc.component =
          List.fold_left Clock.compose (Rvi_coproc.Arbiter.component arb)
            [
              Rvi_coproc.Vport.sync_component vport_b;
              coproc_a.Rvi_coproc.Coproc.component;
              coproc_b.Rvi_coproc.Coproc.component;
            ];
      } )
  in
  let p = Platform.create ~app_name:"dual" cfg ~bitstream:dual_bitstream ~make in
  let kernel = p.Platform.kernel in
  let api = p.Platform.api in
  let arbiter = Option.get !arbiter in
  let bufs_a = Jobs.alloc kernel adpcm.Jobs.objects in
  let bufs_f = Jobs.alloc kernel fir.Jobs.objects in
  ok (Rvi_core.Api.fpga_load api dual_bitstream);
  (* Every object is declared streaming here, the coefficient table
     included; the FIR child's ids go through its port's +2. *)
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
  let adpcm_ok = Jobs.verify kernel bufs_a adpcm in
  let fir_ok = Jobs.verify kernel bufs_f fir in
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
  ignore (ext_dual_on ppf { cfg with Config.device = Rvi_fpga.Device.epxa4 });
  Format.fprintf ppf
    "(on the EPXA1 the two working sets thrash the 16 KB memory and eat the \
     concurrency; with the EPXA4's 64 KB both kernels fit and the shared \
     port pays off — same binaries, same VIM)@.";
  r1

(* Profile-guided optimal replacement: record the reference string once,
   then replay the same workload under Belady's choices. The workload is
   the adversarial classic — vector add cycles through three pages (A, B,
   C) while a shrunken device offers only two data frames, where FIFO and
   LRU thrash and the clairvoyant policy wins. *)
let ext_oracle ppf cfg =
  let input = Jobs.generate Jobs.Vecadd ~seed:cfg.Config.seed ~bytes:4096 in
  let device =
    { cfg.Config.device with Rvi_fpga.Device.dpram_bytes = 4 * 1024; name = "TINY4" }
  in
  let cfg = { cfg with Config.device; eager_mapping = false } in
  (* The IMU trace hook counts references: the oracle policy's position in
     the recorded reference string. *)
  let run ?(record = false) policy =
    let position = ref 0 in
    let collected = ref [] in
    let p = platform ~sdram_bytes:(1024 * 1024) cfg Jobs.Vecadd in
    Rvi_core.Vim.reset p.Platform.vim
      {
        (Rvi_core.Vim.config p.Platform.vim) with
        Rvi_core.Vim.policy = policy ~position:(fun () -> !position);
      };
    Rvi_core.Imu.set_trace p.Platform.imu
      (Some
         (fun e ->
           incr position;
           if record then
             collected := (e.Rvi_core.Imu.obj_id, e.Rvi_core.Imu.vpn) :: !collected));
    let verified = execute p input in
    ( Rvi_sim.Stats.get (Rvi_core.Vim.stats p.Platform.vim) "faults",
      verified,
      Array.of_list (List.rev !collected) )
  in
  let fifo ~position:_ = Rvi_core.Policy.fifo () in
  let _, _, profile_trace = run ~record:true fifo in
  let results =
    List.map
      (fun (name, policy) -> (name, run policy))
      [
        ("fifo", fifo);
        ("lru", fun ~position:_ -> Rvi_core.Policy.lru ());
        ("oracle", Rvi_core.Policy.oracle ~trace:profile_trace);
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
        let _, adpcm = adpcm_8k cfg in
        let idea = Jobs.generate Jobs.Idea ~seed:cfg.Config.seed ~bytes:(8 * 1024) in
        let a_sw = Runner.run cfg Runner.Sw adpcm in
        let a_vim = Runner.run cfg Runner.Vim adpcm in
        let i_sw = Runner.run cfg Runner.Sw idea in
        let i_nrm = Runner.run cfg Runner.Normal idea in
        let i_vim = Runner.run cfg Runner.Vim idea in
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
