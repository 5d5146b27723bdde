(* The serve workloads: one closed-loop multi-tenant service cell through
   [Serve.run_cell], the exact [rvisim serve] path. One op is one request. *)

module Serve = Rvi_svc.Serve
module Service = Rvi_svc.Service
module Loadgen = Rvi_svc.Loadgen
module Slo = Rvi_svc.Slo
module Tenant = Rvi_svc.Tenant
module Sched_policy = Rvi_svc.Sched_policy
module Config = Rvi_harness.Config
module Jobs = Rvi_harness.Jobs
module Translation_mode = Rvi_core.Translation_mode
module Vim = Rvi_core.Vim
module Kernel = Rvi_os.Kernel
module Accounting = Rvi_os.Accounting
module Simtime = Rvi_sim.Simtime
module Stats = Rvi_sim.Stats

let cell ~policy ~tenants ~requests ~seed =
  {
    Serve.cl_policy = policy;
    cl_translation = Translation_mode.Paper_objects;
    cl_seed = seed;
    cl_tenants = tenants;
    cl_requests = requests;
    cl_rate_hz = 0;
    cl_quantum_us = 50;
    cl_bytes = 256;
  }

(* Completion-CSV digests of the seed-42 cells on the commit that
   introduced this benchmark. *)
let pinned_seed = 42

let pinned_digest = function
  | Sched_policy.Wfq -> Some "84e9314f5c2a38aa7dc859341f31a557"
  | Sched_policy.Fcfs -> Some "eff9295626b154cbcf6cdac188c8ff30"
  | Sched_policy.Grouped -> None

(* The calls [Serve.run_cell] composes, repeated so the traced rep can
   put spans around each; the traced rep must reproduce run_cell's digest
   and outcome, which keeps this copy honest. *)
let create (c : Serve.cell) =
  let cfg =
    { (Config.default ()) with
      Config.translation = c.Serve.cl_translation;
      seed = c.Serve.cl_seed }
  in
  let lg =
    Loadgen.create ~seed:c.Serve.cl_seed ~tenants:c.Serve.cl_tenants
      ~requests:c.Serve.cl_requests ~rate_hz:c.Serve.cl_rate_hz
      ~bytes:c.Serve.cl_bytes ()
  in
  let params =
    { (Service.default_params c.Serve.cl_policy) with
      Service.sp_quantum = Simtime.of_us c.Serve.cl_quantum_us;
      sp_starvation_budget = Simtime.of_ms (2_000 + (10 * c.Serve.cl_tenants)) }
  in
  (lg, Service.create cfg params ~tenants:(Loadgen.tenants lg))

let csv_row (c : Serve.cell) (comp : Tenant.completion) =
  Printf.sprintf "%s,%s,%d,%d,%s,%s,%d,%d,%d\n"
    (Sched_policy.name c.Serve.cl_policy)
    (Translation_mode.name c.Serve.cl_translation)
    comp.Tenant.c_rid comp.Tenant.c_tenant
    (Jobs.app_name comp.Tenant.c_kind)
    (Tenant.status_name comp.Tenant.c_status)
    comp.Tenant.c_preemptions comp.Tenant.c_retries (Tenant.latency_us comp)

(* Request latencies (sim ms), from the last column of the completion CSV. *)
let latencies_ms csv =
  String.split_on_char '\n' csv
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         let i = String.rindex l ',' in
         float_of_string (String.sub l (i + 1) (String.length l - i - 1)) /. 1000.0)

let failed_requests (r : Serve.cell_result) =
  r.Serve.cr_cell.Serve.cl_requests - r.Serve.cr_outcome.Service.o_completed
  + r.Serve.cr_report.Slo.r_dropped

let outcome_fields (o : Service.outcome) =
  [
    ("completed", string_of_int o.Service.o_completed);
    ("makespan_ps", string_of_int (Simtime.to_ps o.Service.o_makespan));
    ("reconfigurations", string_of_int o.Service.o_reconfigurations);
    ("configuration_ps", string_of_int (Simtime.to_ps o.Service.o_configuration_time));
    ("preemptions", string_of_int o.Service.o_preemptions);
    ("resumes", string_of_int o.Service.o_resumes);
    ("starved", String.concat " " (List.map string_of_int o.Service.o_starved));
  ]

(* The traced rep: [run_cell]'s calls with a span around each, the feed
   wrapped to time the load generator's share of [Service.run]. *)
let traced_rep (m : Measure.t) (c : Serve.cell) ~(reference : Serve.cell_result)
    ~median_rep_s =
  let rep_start = Span.now_ns () in
  let (lg, svc), create_s = Span.timed "svc.create" (fun () -> create c) in
  let buf = Buffer.create 4096 in
  let completions = ref [] in
  let loadgen_ns = ref 0 in
  let charge f =
    let s = Span.now_ns () in
    f ();
    loadgen_ns := !loadgen_ns + (Span.now_ns () - s)
  in
  let base = Loadgen.feed lg in
  let feed =
    {
      base with
      Service.f_deliver = (fun ~now -> charge (fun () -> base.Service.f_deliver ~now));
      f_notify =
        (fun comp ~now ->
          charge (fun () ->
              Buffer.add_string buf (csv_row c comp);
              completions := comp :: !completions;
              base.Service.f_notify comp ~now));
    }
  in
  let outcome, run_s =
    Span.timed "svc.run" (fun () -> Service.run svc feed ~expect:c.Serve.cl_requests)
  in
  let _report, slo_s =
    Span.timed "svc.slo" (fun () -> Slo.build ~tenants:(Loadgen.tenants lg) ~outcome)
  in
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  let rep_s = Span.seconds_since rep_start in
  Span.record "svc.traced_rep" ~start_ns:rep_start ~stop_ns:(Span.now_ns ())
    ~args:[ ("loadgen_ms", Printf.sprintf "%.3f" (float_of_int !loadgen_ns *. 1e-6)) ];
  Measure.check m
    (digest = reference.Serve.cr_digest)
    (Printf.sprintf "traced rep digest %s differs from run_cell's %s" digest
       reference.Serve.cr_digest);
  List.iter2
    (fun (name, want) (_, got) ->
      Measure.check m (want = got)
        (Printf.sprintf "traced rep outcome %s = %s, run_cell's = %s" name got want))
    (outcome_fields reference.Serve.cr_outcome)
    (outcome_fields outcome);
  let covered = create_s +. run_s +. slo_s in
  let coverage = Stat.ratio covered rep_s in
  Measure.check m (coverage >= 0.98)
    (Printf.sprintf "svc.create + svc.run + svc.slo cover %.1f%% of the traced rep (< 98%%)"
       (100.0 *. coverage));
  Measure.set m "bench.span_coverage" coverage;
  Measure.set m "bench.unattributed_ms" ((rep_s -. covered) *. 1e3);
  let fi = float_of_int in
  let reqs = fi outcome.Service.o_completed in
  let per_req x = Stat.ratio x reqs in
  let loadgen_s = fi !loadgen_ns *. 1e-9 in
  let self_s = run_s -. loadgen_s in
  Measure.set m "bench.trace_overhead_frac" (1.0 -. (median_rep_s /. rep_s));
  Measure.set m "svc.create_ms" (create_s *. 1e3);
  Measure.set m "svc.loadgen_us_per_req" (per_req (loadgen_s *. 1e6));
  Measure.set m "svc.run_self_us_per_req" (per_req (self_s *. 1e6));
  Measure.set m "svc.slo_ms" (slo_s *. 1e3);
  let comps = !completions in
  let between a b = List.map (fun x -> Simtime.to_ms (Simtime.sub (b x) (a x))) comps in
  let queue = between (fun x -> x.Tenant.c_submitted_at) (fun x -> x.Tenant.c_started_at) in
  let exec = between (fun x -> x.Tenant.c_started_at) (fun x -> x.Tenant.c_finished_at) in
  Measure.set m "svc.queue_ms_p50" (Stat.percentile queue 50);
  Measure.set m "svc.queue_ms_p99" (Stat.percentile queue 99);
  Measure.set m "svc.exec_ms_p50" (Stat.percentile exec 50);
  Measure.set m "svc.exec_ms_p99" (Stat.percentile exec 99);
  let sum f = fi (List.fold_left (fun n x -> n + f x) 0 comps) in
  Measure.set m "svc.preemptions_per_req" (per_req (sum (fun x -> x.Tenant.c_preemptions)));
  Measure.set m "svc.resumes_per_req" (per_req (fi outcome.Service.o_resumes));
  Measure.set m "svc.retries_per_req" (per_req (sum (fun x -> x.Tenant.c_retries)));
  Measure.set m "svc.degraded_frac"
    (per_req (sum (fun x -> if x.Tenant.c_status = Tenant.Degraded then 1 else 0)));
  Measure.set m "fpga.reconfigs_per_kreq"
    (1000.0 *. per_req (fi outcome.Service.o_reconfigurations));
  Measure.set m "fpga.config_ms_total" (Simtime.to_ms outcome.Service.o_configuration_time);
  let kernel = Service.kernel svc in
  let events = fi (Rvi_sim.Engine.events_processed (Kernel.engine kernel)) in
  Measure.set m "sim.events_per_op" (per_req events);
  Measure.set m "sim.host_ns_per_event" (Stat.ratio (self_s *. 1e9) events);
  let vim name =
    fi
      (List.fold_left
         (fun n k -> n + Stats.get (Vim.stats (Service.vim_of_kind svc k)) name)
         0 [ Jobs.Adpcm; Jobs.Idea; Jobs.Fir ])
  in
  let faults = vim "faults" in
  Measure.set m "core.vim.faults_per_op" (per_req faults);
  Measure.set m "core.vim.pages_loaded_per_op" (per_req (vim "pages_loaded"));
  Measure.set m "core.vim.evictions_per_op" (per_req (vim "evictions"));
  Measure.set m "core.vim.writebacks_per_op" (per_req (vim "writebacks"));
  Measure.set m "core.vim.copy_retries_per_op" (per_req (vim "copy_retries"));
  Measure.set m "core.vim.watchdog_fires_per_kop" (1000.0 *. per_req (vim "watchdog_fires"));
  Measure.set m "core.vim.aborts_per_kop" (1000.0 *. per_req (vim "aborts"));
  Measure.set m "core.vim.host_us_per_fault" (Stat.ratio (self_s *. 1e6) faults);
  let acct = Kernel.accounting kernel in
  let frac cat = Accounting.fraction acct cat in
  Measure.set m "os.sim_hw_frac" (frac Accounting.Hw);
  Measure.set m "os.sim_swdp_frac" (frac Accounting.Sw_dp);
  Measure.set m "os.sim_swimu_frac" (frac Accounting.Sw_imu);
  let ks = Kernel.stats kernel in
  Measure.set m "os.interrupts_per_op" (per_req (fi (Stats.get ks "interrupts")));
  Measure.set m "os.syscalls_per_op" (per_req (fi (Stats.get ks "syscalls")))

let run ~policy ~tenants ~requests ~seed ~seconds ~traced (m : Measure.t) =
  let c = cell ~policy ~tenants ~requests ~seed in
  let setup = Measure.setup_samples (fun () -> ignore (create c)) in
  let reference = ref None in
  let check (r : Serve.cell_result) =
    let o = r.Serve.cr_outcome in
    Measure.check m (o.Service.o_inconsistencies = [])
      (String.concat "; " o.Service.o_inconsistencies);
    Measure.check m (not o.Service.o_exhausted) "dispatch budget exhausted";
    Measure.check m r.Serve.cr_report.Slo.r_sane "insane SLO report (p99 < p50)";
    m.Measure.attempted <- m.Measure.attempted + requests;
    m.Measure.failed <- m.Measure.failed + failed_requests r;
    match !reference with
    | None ->
      reference := Some r;
      if seed = pinned_seed then
        Option.iter
          (fun pinned ->
            Measure.check m (r.Serve.cr_digest = pinned)
              (Printf.sprintf "completion digest %s, pinned %s" r.Serve.cr_digest pinned))
          (pinned_digest policy)
    | Some first ->
      Measure.check m
        (r.Serve.cr_digest = first.Serve.cr_digest)
        (Printf.sprintf "rep digest %s differs from the first rep's %s"
           r.Serve.cr_digest first.Serve.cr_digest)
  in
  let reps =
    Measure.gc_around m
      ~ops:(fun reps -> requests * List.length reps)
      (fun () -> Measure.timed_reps ~seconds ~rep:(fun () -> Serve.run_cell c) ~check)
  in
  let reference = Option.get !reference in
  Measure.set_end_to_end m ~ops:(requests - failed_requests reference) ~reps ~setup;
  let report = reference.Serve.cr_report in
  let lat = latencies_ms reference.Serve.cr_csv in
  let n = List.length lat in
  Measure.set m "fail_frac" (float_of_int (failed_requests reference) /. float_of_int requests);
  Measure.set m "sim_p50_ms" (Stat.percentile lat 50);
  Measure.set m "sim_tail_ms" (Stat.percentile lat (Stat.tail_percentile n));
  Measure.set m "sim_samples" (float_of_int n);
  Measure.set m "sim_makespan_s" (Simtime.to_s reference.Serve.cr_outcome.Service.o_makespan);
  Measure.set m "jain" report.Slo.r_jain;
  Measure.set m "starved_frac"
    (float_of_int (List.length report.Slo.r_starved) /. float_of_int tenants);
  if traced then
    traced_rep m c ~reference ~median_rep_s:(Stat.median (Measure.host_seconds reps))
