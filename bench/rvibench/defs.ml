(* The benchmark's single table of workloads and metrics. BENCHMARK.json at
   the repository root is [describe]'s output, and a test keeps the two
   equal, so edit the table here and regenerate the file. *)

type better = Higher | Lower

type kind =
  | Bound of float
      (** end to end, measured on the host; the share of the baseline
          median by which the metric may worsen before it counts as a
          regression *)
  | Exact
      (** simulated result: a pure function of the seed, so any change
          is a change of behaviour, never noise *)
  | No_rise  (** simulated, like [Exact], but may fall *)
  | Layer  (** per-layer, read from the traced rep; no bound *)

type metric = { name : string; unit_ : string; better : better; kind : kind }

type workload = {
  w_name : string;
  w_why : string;
  w_run : seed:int -> seconds:int -> traced:bool -> Measure.t -> unit;
}

let run_seconds = 20

let command = [ "bash"; "bench/rvibench/run.sh" ]
let paths = [ "bench/rvibench" ]

let workloads =
  [
    {
      w_name = "campaign-paper";
      w_why =
        "200-run fault campaign, paper objects: pool reset, injection and \
         recovery, IMU/TLB and VIM fault service all work; the service layer \
         does none";
      w_run = Campaign_wl.run ~translation:Rvi_core.Translation_mode.Paper_objects;
    };
    {
      w_name = "campaign-sva";
      w_why =
        "the same campaign in IOMMU/SVA mode adds the shared L2 TLB and the \
         page-table walker, so a translation change that helps one mode and \
         costs the other shows";
      w_run = Campaign_wl.run ~translation:Rvi_core.Translation_mode.Iommu_sva;
    };
    {
      w_name = "serve-wfq";
      w_why =
        "200 closed-loop tenants under preemptive wfq: ~27k whole-DP-RAM \
         park/resume preemptions and O(tenants) scheduler scans, only ~5 \
         reconfigurations";
      w_run = Serve_wl.run ~policy:Rvi_svc.Sched_policy.Wfq ~tenants:200 ~requests:20_000;
    };
    {
      w_name = "serve-fcfs";
      w_why =
        "300 closed-loop tenants under fcfs: the same service code with no \
         preemption and ~7k reconfigurations, so preemption-path changes \
         should not move it";
      w_run = Serve_wl.run ~policy:Rvi_svc.Sched_policy.Fcfs ~tenants:300 ~requests:10_000;
    };
  ]

let m ?(kind = Layer) name unit_ better = { name; unit_; better; kind }

let end_to_end =
  [
    m "ops_per_s" "1/s" Higher ~kind:(Bound 0.25);
    m "setup_s" "s" Lower ~kind:(Bound 0.25);
    m "peak_rss_mb" "MB" Lower ~kind:(Bound 0.1);
  ]

(* Simulated results sit with the per-layer metrics: several are 0 on some
   workloads and all of them move with the seed, so they are compared for
   equality between runs of the same seeds instead of against a bound. *)
let results =
  [
    m "fail_frac" "ratio" Lower ~kind:No_rise;
    m "sim_p50_ms" "sim_ms" Lower ~kind:Exact;
    m "sim_tail_ms" "sim_ms" Lower ~kind:Exact;
    m "sim_samples" "count" Higher ~kind:Exact;
    m "sim_makespan_s" "sim_s" Lower ~kind:Exact;
    m "jain" "ratio" Higher ~kind:Exact;
    m "starved_frac" "ratio" Lower ~kind:Exact;
  ]

let layers =
  [
    m "harness.run_ms_p50" "ms" Lower;
    m "harness.run_ms_p95" "ms" Lower;
    m "harness.setup_us_per_run" "us/op" Lower;
    m "harness.execute_us_per_run" "us/op" Lower;
    m "harness.report_us_per_run" "us/op" Lower;
    m "harness.exec_retries_per_run" "1/op" Lower;
    m "inject.faults_per_run" "1/op" Lower;
    m "inject.recovered_frac" "ratio" Higher;
    m "sim.events_per_op" "1/op" Lower;
    m "sim.host_ns_per_event" "ns" Lower;
    m "core.imu.accesses_per_op" "1/op" Lower;
    m "core.imu.stall_cycles_per_op" "cycles/op" Lower;
    m "core.tlb.hit_ratio" "ratio" Higher;
    m "core.l2.hit_ratio" "ratio" Higher;
    m "core.walker.walks_per_op" "1/op" Lower;
    m "core.walker.walk_cycles_p95" "cycles" Lower;
    m "core.vim.faults_per_op" "1/op" Lower;
    m "core.vim.pages_loaded_per_op" "1/op" Lower;
    m "core.vim.evictions_per_op" "1/op" Lower;
    m "core.vim.writebacks_per_op" "1/op" Lower;
    m "core.vim.copy_retries_per_op" "1/op" Lower;
    m "core.vim.watchdog_fires_per_kop" "1/kop" Lower;
    m "core.vim.aborts_per_kop" "1/kop" Lower;
    m "core.vim.host_us_per_fault" "us" Lower;
    m "os.sim_hw_frac" "ratio" Higher;
    m "os.sim_swdp_frac" "ratio" Lower;
    m "os.sim_swimu_frac" "ratio" Lower;
    m "os.interrupts_per_op" "1/op" Lower;
    m "os.syscalls_per_op" "1/op" Lower;
    m "mem.dpram_cpu_words_per_op" "words/op" Lower;
    m "mem.dpram_pld_accesses_per_op" "1/op" Lower;
    m "fpga.reconfigs_per_kreq" "1/kop" Lower;
    m "fpga.config_ms_total" "sim_ms" Lower;
    m "svc.create_ms" "ms" Lower;
    m "svc.loadgen_us_per_req" "us/op" Lower;
    m "svc.run_self_us_per_req" "us/op" Lower;
    m "svc.slo_ms" "ms" Lower;
    m "svc.queue_ms_p50" "sim_ms" Lower;
    m "svc.queue_ms_p99" "sim_ms" Lower;
    m "svc.exec_ms_p50" "sim_ms" Lower;
    m "svc.exec_ms_p99" "sim_ms" Lower;
    m "svc.preemptions_per_req" "1/op" Lower;
    m "svc.resumes_per_req" "1/op" Lower;
    m "svc.retries_per_req" "1/op" Lower;
    m "svc.degraded_frac" "ratio" Lower;
    m "gc.minor_words_per_op" "words/op" Lower;
    m "gc.promoted_words_per_op" "words/op" Lower;
    m "gc.major_collections_per_kop" "1/kop" Lower;
    m "gc.top_heap_mb" "MB" Lower;
    m "par.speedup_j2" "ratio" Higher;
    m "par.host_cores" "count" Higher;
    m "bench.raw_ops_per_s" "1/s" Higher;
    m "bench.reference_ms" "ms" Lower;
    m "bench.trace_overhead_frac" "ratio" Lower;
    m "bench.span_coverage" "ratio" Higher;
    m "bench.unattributed_ms" "ms" Lower;
  ]

let per_layer = results @ layers
let all_metrics = end_to_end @ per_layer
let find_metric name = List.find_opt (fun x -> x.name = name) all_metrics
let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads

let better_name = function Higher -> "higher" | Lower -> "lower"

let describe () =
  let b = Buffer.create 8192 in
  let add fmt = Printf.bprintf b fmt in
  let list items f =
    List.iteri
      (fun i x ->
        f x;
        add "%s\n" (if i = List.length items - 1 then "" else ","))
      items
  in
  let strings xs = String.concat ", " (List.map (Printf.sprintf "%S") xs) in
  add "{\n";
  add "  \"command\": [%s],\n" (strings command);
  add "  \"paths\": [%s],\n" (strings paths);
  add "  \"run_seconds\": %d,\n" run_seconds;
  add "  \"workloads\": [\n";
  list workloads (fun w -> add "    {\"name\": %S, \"why\": %S}" w.w_name w.w_why);
  add "  ],\n  \"end_to_end\": [\n";
  list end_to_end (fun x ->
      let bound = match x.kind with Bound f -> f | Exact | No_rise | Layer -> 0.0 in
      add "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}"
        x.name x.unit_ (better_name x.better) bound);
  add "  ],\n  \"per_layer\": [\n";
  list per_layer (fun x ->
      add "    {\"name\": %S, \"unit\": %S, \"better\": %S}" x.name x.unit_
        (better_name x.better));
  add "  ]\n}\n";
  Buffer.contents b
