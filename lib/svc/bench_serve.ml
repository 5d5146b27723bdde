(* The gated perf series for the serve campaign, one JSON entry per
   (policy, mode) cell appended to BENCH_serve.json — same machine-written
   splice-before-the-closing-bracket format as BENCH_campaign.json, and
   the same read-the-baseline-before-appending gate discipline. *)


module Trajectory = Rvi_harness.Trajectory
type point = {
  benchmark : string;  (* "serve-<policy>-<mode>" *)
  commit : string;
  host_cores : int;
  recommended_domains : int;
  tenants : int;
  requests : int;
  completed : int;
  seed : int;
  jobs : int;
  wall_s : float;
  runs_per_sec : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  jain : float;
  makespan_ms : float;
  reconfigurations : int;
  preemptions : int;
  deterministic : bool;
  digest : string;
}

let benchmark_label (c : Serve.cell) =
  Printf.sprintf "serve-%s-%s"
    (Sched_policy.name c.Serve.cl_policy)
    (Rvi_core.Translation_mode.name c.Serve.cl_translation)

let of_result ?(jobs = 1) ?(deterministic = true) (r : Serve.cell_result) =
  let report = r.Serve.cr_report in
  {
    benchmark = benchmark_label r.Serve.cr_cell;
    commit = Trajectory.git_commit ();
    host_cores = Trajectory.host_cores ();
    recommended_domains = Domain.recommended_domain_count ();
    tenants = r.Serve.cr_cell.Serve.cl_tenants;
    requests = r.Serve.cr_cell.Serve.cl_requests;
    completed = report.Slo.r_completed;
    seed = r.Serve.cr_cell.Serve.cl_seed;
    jobs;
    wall_s = r.Serve.cr_wall_s;
    runs_per_sec =
      (if r.Serve.cr_wall_s > 0.0 then
         float_of_int report.Slo.r_completed /. r.Serve.cr_wall_s
       else 0.0);
    p50_us = report.Slo.r_p50_us;
    p95_us = report.Slo.r_p95_us;
    p99_us = report.Slo.r_p99_us;
    jain = report.Slo.r_jain;
    makespan_ms = report.Slo.r_makespan_ms;
    reconfigurations = report.Slo.r_reconfigurations;
    preemptions = report.Slo.r_preemptions;
    deterministic;
    digest = r.Serve.cr_digest;
  }

let point_json p =
  Printf.sprintf
    "  {\n\
    \    \"benchmark\": %S,\n\
    \    \"commit\": %S,\n\
    \    \"host_cores\": %d,\n\
    \    \"recommended_domains\": %d,\n\
    \    \"tenants\": %d,\n\
    \    \"requests\": %d,\n\
    \    \"completed\": %d,\n\
    \    \"seed\": %d,\n\
    \    \"jobs\": %d,\n\
    \    \"wall_s\": %.6f,\n\
    \    \"runs_per_sec\": %.2f,\n\
    \    \"p50_us\": %.1f,\n\
    \    \"p95_us\": %.1f,\n\
    \    \"p99_us\": %.1f,\n\
    \    \"jain\": %.4f,\n\
    \    \"makespan_ms\": %.3f,\n\
    \    \"reconfigurations\": %d,\n\
    \    \"preemptions\": %d,\n\
    \    \"deterministic\": %b,\n\
    \    \"digest\": %S\n\
    \  }"
    p.benchmark p.commit p.host_cores p.recommended_domains p.tenants
    p.requests p.completed p.seed p.jobs p.wall_s
    p.runs_per_sec p.p50_us p.p95_us p.p99_us p.jain p.makespan_ms
    p.reconfigurations p.preemptions p.deterministic p.digest

let default_path = "BENCH_serve.json"

let append ?(path = default_path) p = Trajectory.append ~path (point_json p)

type baseline = { base_runs_per_sec : float; base_p99_us : float }

let last_baseline ?(path = default_path) ~benchmark ~tenants ~requests () =
  match Trajectory.read_file path with
  | None -> None
  | Some s -> (
    let label = Printf.sprintf "\"benchmark\": %S" benchmark in
    let same_size at =
      Trajectory.float_field_at s at "\"tenants\":" = Some (float_of_int tenants)
      && Trajectory.float_field_at s at "\"requests\":" = Some (float_of_int requests)
    in
    match List.find_opt same_size (Trajectory.indices_rev s label) with
    | None -> None
    | Some at -> (
      match
        ( Trajectory.float_field_at s at "\"runs_per_sec\":",
          Trajectory.float_field_at s at "\"p99_us\":" )
      with
      | Some rps, Some p99 ->
        Some { base_runs_per_sec = rps; base_p99_us = p99 }
      | _ -> None))

(* The regression gate: host throughput must not fall below
   (1 - tol) x baseline, and the simulated tail latency must not grow
   past (1 + tol) x baseline. Returns the failures (empty = pass). *)
let gate ~tolerance ~(baseline : baseline option) p =
  match baseline with
  | None -> []
  | Some b ->
    List.concat
      [
        (if
           b.base_runs_per_sec > 0.0
           && p.runs_per_sec < (1.0 -. tolerance) *. b.base_runs_per_sec
         then
           [ Printf.sprintf
               "%s: %.1f runs/s is below the %.1f gate (baseline %.1f, \
                tolerance %.0f%%)"
               p.benchmark p.runs_per_sec
               ((1.0 -. tolerance) *. b.base_runs_per_sec)
               b.base_runs_per_sec (tolerance *. 100.0) ]
         else []);
        (if
           b.base_p99_us > 0.0
           && p.p99_us > (1.0 +. tolerance) *. b.base_p99_us
         then
           [ Printf.sprintf
               "%s: p99 %.0f us exceeds the %.0f gate (baseline %.0f, \
                tolerance %.0f%%)"
               p.benchmark p.p99_us
               ((1.0 +. tolerance) *. b.base_p99_us)
               b.base_p99_us (tolerance *. 100.0) ]
         else []);
      ]

let print ppf p =
  Format.fprintf ppf
    "%s [%s]: %d tenants, %d/%d requests, %.2fs wall (%.1f runs/s), \
     p50/p95/p99 = %.0f/%.0f/%.0f us, Jain %.4f, %d reconfigs, %d preemptions@."
    p.benchmark p.commit p.tenants p.completed p.requests p.wall_s
    p.runs_per_sec p.p50_us p.p95_us p.p99_us p.jain p.reconfigurations
    p.preemptions
