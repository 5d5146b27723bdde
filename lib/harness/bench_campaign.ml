let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

type point = {
  benchmark : string;
  commit : string;
  host_cores : int;
  recommended_domains : int;
  runs : int;
  seed : int;
  jobs : int;
  serial_s : float;
  parallel_s : float;
  serial_runs_per_sec : float;
  parallel_runs_per_sec : float;
  speedup : float;
  deterministic : bool;
  survival : float;
  phase_setup_s : float;
  phase_execute_s : float;
  phase_report_s : float;
}

let classification results =
  List.map (fun r -> (r.Faults.index, Faults.outcome_name r.Faults.outcome)) results

(* Each translation mode is its own benchmark series: SVA runs pay for
   page-table walks, so gating its throughput against the paper-mode
   baseline (or vice versa) would misfire. The label keys the series. *)
let benchmark_label = function
  | Rvi_core.Translation_mode.Paper_objects -> "faults-campaign"
  | Rvi_core.Translation_mode.Iommu_sva -> "faults-campaign-sva"

let run ?(runs = 200) ?(seed = 2004)
    ?(translation = Rvi_core.Translation_mode.Paper_objects) ~jobs () =
  (* Untimed warm-up so the measured passes see a steady state: first-touch
     page faults on the executable, a grown major heap, and a populated
     platform pool all land here instead of inflating [serial_s]. *)
  ignore (Faults.campaign ~translation ~runs:(min 10 runs) ~seed ());
  (* Phase totals are read right after the serial pass so they attribute
     exactly the [serial_s] wall time (the parallel pass would race the
     accumulators and mix in sharded runs). *)
  Runner.Phases.reset ();
  let serial, serial_s =
    time (fun () -> Faults.campaign ~translation ~runs ~seed ())
  in
  let phase_setup_s, phase_execute_s, phase_report_s = Runner.Phases.totals () in
  let parallel, parallel_s =
    time (fun () -> Faults.campaign ~translation ~jobs ~runs ~seed ())
  in
  let per_sec t = if t > 0.0 then float_of_int runs /. t else 0.0 in
  {
    benchmark = benchmark_label translation;
    commit = Trajectory.git_commit ();
    host_cores = Trajectory.host_cores ();
    recommended_domains = Domain.recommended_domain_count ();
    runs;
    seed;
    jobs;
    serial_s;
    parallel_s;
    serial_runs_per_sec = per_sec serial_s;
    parallel_runs_per_sec = per_sec parallel_s;
    speedup = (if parallel_s > 0.0 then serial_s /. parallel_s else 0.0);
    deterministic =
      classification serial = classification parallel
      && Faults.summarize serial = Faults.summarize parallel;
    survival = Faults.survival (Faults.summarize serial);
    phase_setup_s;
    phase_execute_s;
    phase_report_s;
  }

let point_json r =
  Printf.sprintf
    "  {\n\
    \    \"benchmark\": %S,\n\
    \    \"commit\": %S,\n\
    \    \"host_cores\": %d,\n\
    \    \"recommended_domains\": %d,\n\
    \    \"runs\": %d,\n\
    \    \"seed\": %d,\n\
    \    \"jobs\": %d,\n\
    \    \"serial_s\": %.6f,\n\
    \    \"parallel_s\": %.6f,\n\
    \    \"serial_runs_per_sec\": %.2f,\n\
    \    \"parallel_runs_per_sec\": %.2f,\n\
    \    \"speedup\": %.3f,\n\
    \    \"deterministic\": %b,\n\
    \    \"survival_pct\": %.2f,\n\
    \    \"phase_setup_s\": %.6f,\n\
    \    \"phase_execute_s\": %.6f,\n\
    \    \"phase_report_s\": %.6f\n\
    \  }"
    r.benchmark r.commit r.host_cores r.recommended_domains r.runs r.seed r.jobs
    r.serial_s r.parallel_s
    r.serial_runs_per_sec r.parallel_runs_per_sec r.speedup r.deterministic
    r.survival r.phase_setup_s r.phase_execute_s r.phase_report_s

let default_path = "BENCH_campaign.json"

let append ?(path = default_path) r = Trajectory.append ~path (point_json r)

let last_serial_rps ?(path = default_path) ?(benchmark = "faults-campaign") () =
  match Trajectory.read_file path with
  | None -> None
  | Some s -> (
    (* The newest point of *this* benchmark series: two-mode row pairs
       interleave paper and SVA entries, and a gate must only ever
       compare like with like. *)
    let label = Printf.sprintf "\"benchmark\": %S" benchmark in
    match Trajectory.indices_rev s label with
    | at :: _ -> Trajectory.float_field_at s at "\"serial_runs_per_sec\":"
    | [] -> None)

let print ppf r =
  Format.fprintf ppf
    "%s %d runs, seed %d [%s, %d cores]: serial %.2fs (%.1f runs/s), \
     --jobs %d %.2fs (%.1f runs/s), speedup %.2fx, classifications %s@."
    r.benchmark r.runs r.seed r.commit r.host_cores r.serial_s
    r.serial_runs_per_sec
    r.jobs r.parallel_s r.parallel_runs_per_sec r.speedup
    (if r.deterministic then "identical" else "DIVERGED (bug)");
  Format.fprintf ppf
    "  serial phase split: setup %.2fs, execute %.2fs, report %.2fs@."
    r.phase_setup_s r.phase_execute_s r.phase_report_s
