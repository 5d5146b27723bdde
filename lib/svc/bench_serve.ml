(* The gated perf series for the serve campaign, one JSON entry per
   (policy, mode) cell appended to BENCH_serve.json — same machine-written
   splice-before-the-closing-bracket format as BENCH_campaign.json, and
   the same read-the-baseline-before-appending gate discipline. *)

let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim line)
    | _ -> None
  with _ -> None

let git_commit () =
  match command_line "git rev-parse --short HEAD 2>/dev/null" with
  | None | Some "" -> "unknown"
  | Some hash -> (
    match command_line "git status --porcelain 2>/dev/null" with
    | Some "" -> hash
    | Some _ -> hash ^ "-dirty"
    | None -> hash)

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
    commit = git_commit ();
    host_cores = Rvi_harness.Bench_campaign.host_cores ();
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

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let append ?(path = default_path) p =
  let entry = point_json p in
  let fresh = "[\n" ^ entry ^ "\n]\n" in
  let content =
    match read_file path with
    | None -> fresh
    | Some old -> (
      match String.rindex_opt old ']' with
      | None -> fresh
      | Some i ->
        let body = String.trim (String.sub old 0 i) in
        if body = "[" then fresh else body ^ ",\n" ^ entry ^ "\n]\n")
  in
  write_file path content;
  path

(* Start offsets of every occurrence of [key], newest (last) first. *)
let indices_rev s key =
  let kl = String.length key and n = String.length s in
  let acc = ref [] in
  for i = 0 to n - kl do
    if String.sub s i kl = key then acc := i :: !acc
  done;
  !acc

let float_field_at s pos key =
  let kl = String.length key and n = String.length s in
  let found = ref (-1) and i = ref pos in
  while !found < 0 && !i <= n - kl do
    if String.sub s !i kl = key then found := !i;
    incr i
  done;
  if !found < 0 then None
  else begin
    let j = !found + kl in
    let stop = ref j in
    while
      !stop < n && s.[!stop] <> ',' && s.[!stop] <> '\n' && s.[!stop] <> '}'
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub s j (!stop - j)))
  end

type baseline = { base_runs_per_sec : float; base_p99_us : float }

let last_baseline ?(path = default_path) ~benchmark ~tenants ~requests () =
  match read_file path with
  | None -> None
  | Some s -> (
    let label = Printf.sprintf "\"benchmark\": %S" benchmark in
    let same_size at =
      float_field_at s at "\"tenants\":" = Some (float_of_int tenants)
      && float_field_at s at "\"requests\":" = Some (float_of_int requests)
    in
    match List.find_opt same_size (indices_rev s label) with
    | None -> None
    | Some at -> (
      match
        ( float_field_at s at "\"runs_per_sec\":",
          float_field_at s at "\"p99_us\":" )
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
