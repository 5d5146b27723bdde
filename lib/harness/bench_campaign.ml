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
    (* a point measured on uncommitted sources must not impersonate the
       commit it sits on *)
    match command_line "git status --porcelain 2>/dev/null" with
    | Some "" -> hash
    | Some _ -> hash ^ "-dirty"
    | None -> hash)

(* Cores this process may run on: [nproc] honours CPU affinity and
   container limits; without it, fall back to what the OCaml runtime
   recommends. *)
let host_cores () =
  match Option.bind (command_line "nproc 2>/dev/null") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

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
    commit = git_commit ();
    host_cores = host_cores ();
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

(* The file is machine-written (by this module), so appending splices the
   new entry in front of the array's closing bracket rather than pulling
   in a JSON parser the toolchain doesn't ship. *)
let append ?(path = default_path) r =
  let entry = point_json r in
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

(* Last occurrence of [key] at or after [from], or -1. *)
let last_index_from s ~from key =
  let kl = String.length key and n = String.length s in
  let last = ref (-1) in
  for i = (if from < 0 then 0 else from) to n - kl do
    if String.sub s i kl = key then last := i
  done;
  !last

let float_field_at s pos key =
  let kl = String.length key and n = String.length s in
  (* First occurrence at or after [pos] — the field inside that entry. *)
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

let last_serial_rps ?(path = default_path) ?(benchmark = "faults-campaign") () =
  match read_file path with
  | None -> None
  | Some s ->
    (* The newest point of *this* benchmark series: two-mode row pairs
       interleave paper and SVA entries, and a gate must only ever
       compare like with like. *)
    let label = Printf.sprintf "\"benchmark\": %S" benchmark in
    let at = last_index_from s ~from:0 label in
    if at < 0 then None else float_field_at s at "\"serial_runs_per_sec\":"

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
