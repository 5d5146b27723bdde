module Simtime = Rvi_sim.Simtime
module Prng = Rvi_sim.Prng
module Par = Rvi_par.Par
module Faults = Rvi_harness.Faults
module Config = Rvi_harness.Config
module Platform = Rvi_harness.Platform

type violation =
  | Crash of string
  | Inconsistent of string
  | Bad_output of string
  | Unrecovered of string
  | Progress_gap of float
  | Stat_insane of string
  | Starved of int
  | Slo_insane of string

let violation_class = function
  | Crash _ -> "crash"
  | Inconsistent _ -> "inconsistent"
  | Bad_output _ -> "bad-output"
  | Unrecovered _ -> "unrecovered"
  | Progress_gap _ -> "progress-gap"
  | Stat_insane _ -> "stat-insane"
  | Starved _ -> "starved"
  | Slo_insane _ -> "slo-insane"

let violation_detail = function
  | Crash m | Inconsistent m | Bad_output m | Unrecovered m | Stat_insane m
  | Slo_insane m ->
    m
  | Progress_gap ms -> Printf.sprintf "%.1f ms without completion" ms
  | Starved id -> Printf.sprintf "tenant %d starved" id

let rank = function
  | Crash _ -> 0
  | Inconsistent _ -> 1
  | Bad_output _ -> 2
  | Unrecovered _ -> 3
  | Progress_gap _ -> 4
  | Stat_insane _ -> 5
  | Starved _ -> 6
  | Slo_insane _ -> 7

type report = {
  index : int;
  scenario : Scenario.t;
  violations : violation list;
  runs : Faults.run_result list;
}

let classification r =
  match r.violations with [] -> "pass" | v :: _ -> violation_class v

(* The progress invariant: no healthy campaign run takes anywhere near
   this long (the heaviest workload completes in a few simulated
   milliseconds, and every recovery path is bounded by sane watchdogs at
   50 ms or less), so crossing it means the run only terminated because
   the harness' backstop ran out — a liveness bug. *)
let progress_gap_ms = 500.0

let run_single ~index (sc : Scenario.t) =
  let base = Scenario.config sc in
  let inconsistencies = ref [] in
  let inspect p =
    match Rvi_core.Vim.consistency p.Platform.vim with
    | Ok () -> ()
    | Error m -> inconsistencies := m :: !inconsistencies
  in
  let runs =
    List.mapi
      (fun i app ->
        (* Each application of the mix gets its own injector seed, a pure
           function of (scenario seed, position). *)
        let seed =
          Prng.next (Prng.derive ~seed:sc.Scenario.seed ~index:i)
          land 0x3FFF_FFFF
        in
        let w =
          Faults.workload_of ~seed ~bytes:(sc.Scenario.input_kb * 1024) app
        in
        Faults.run_one ~base ~events:sc.Scenario.events ~inspect
          ~spec:sc.Scenario.rates ~recovery:base.Config.recovery
          ~watchdog:base.Config.watchdog ~exec_retries:base.Config.exec_retries
          ~seed w)
      sc.Scenario.apps
  in
  let of_run (r : Faults.run_result) =
    let base =
      match r.Faults.outcome with
      | Faults.Crashed m -> [ Crash m ]
      | Faults.Degraded { verified = false; reason } ->
        [ Bad_output ("unverified fallback: " ^ reason) ]
      | Faults.Failed "output not verified" ->
        [ Bad_output "hardware output failed verification" ]
      | Faults.Failed m -> [ Unrecovered m ]
      | Faults.Clean | Faults.Recovered _ | Faults.Degraded _ -> []
    in
    let gap =
      if r.Faults.total_ms > progress_gap_ms then
        [ Progress_gap r.Faults.total_ms ]
      else []
    in
    let insane =
      if r.Faults.total_ms < 0.0 then [ Stat_insane "negative run time" ]
      else if r.Faults.outcome = Faults.Clean && r.Faults.injected > 0 then
        [
          Stat_insane
            (Printf.sprintf "clean outcome with %d faults injected"
               r.Faults.injected);
        ]
      else []
    in
    base @ gap @ insane
  in
  let violations =
    List.concat_map of_run runs
    @ List.rev_map (fun m -> Inconsistent m) !inconsistencies
    |> List.stable_sort (fun a b -> compare (rank a) (rank b))
  in
  { index; scenario = sc; violations; runs }

(* Multi-tenant scenarios run through the service instead of the
   single-tenant runner: a closed-loop load of two requests per tenant
   under the scenario's injector, scheduled by the policy the scenario
   seed selects. The service's own invariants join the classification —
   [starved] (a tenant with queued work making no progress inside the
   budget) and [slo-insane] (a statistically impossible latency report,
   or a breach of the scenario's declared p99 objective). *)
let run_service ~index (sc : Scenario.t) =
  let module Injector = Rvi_inject.Injector in
  let module Service = Rvi_svc.Service in
  let module Loadgen = Rvi_svc.Loadgen in
  let module Slo = Rvi_svc.Slo in
  let inj = Injector.create ~seed:sc.Scenario.seed ~spec:sc.Scenario.rates in
  if sc.Scenario.events <> [] then Injector.set_events inj sc.Scenario.events;
  let cfg = { (Scenario.config sc) with Config.injector = Some inj } in
  let policies = Rvi_svc.Sched_policy.all in
  let policy = List.nth policies (sc.Scenario.seed mod List.length policies) in
  let requests = 2 * sc.Scenario.tenants in
  let bytes = Stdlib.min 2048 (sc.Scenario.input_kb * 1024) in
  let lg =
    Loadgen.create ~seed:sc.Scenario.seed ~tenants:sc.Scenario.tenants
      ~requests ~rate_hz:0 ~bytes ()
  in
  let tenants = Loadgen.tenants lg in
  let params =
    {
      (Service.default_params policy) with
      Service.sp_starvation_budget =
        Simtime.of_ms (2_000 + (10 * sc.Scenario.tenants));
    }
  in
  let result =
    try
      let svc = Service.create cfg params ~tenants in
      Ok (Service.run svc (Loadgen.feed lg) ~expect:requests)
    with e -> Error (Printexc.to_string e)
  in
  let violations =
    match result with
    | Error m -> [ Crash m ]
    | Ok outcome ->
      let report = Slo.build ~tenants ~outcome in
      let injected = Injector.injected_total inj in
      List.concat
        [
          List.map (fun m -> Inconsistent m) outcome.Service.o_inconsistencies;
          (if report.Slo.r_degraded > 0 && injected = 0 then
             [
               Bad_output
                 (Printf.sprintf
                    "%d degraded completions with no faults injected"
                    report.Slo.r_degraded);
             ]
           else []);
          (if outcome.Service.o_exhausted then
             [ Unrecovered "service dispatch budget exhausted" ]
           else if outcome.Service.o_completed < requests then
             [
               Unrecovered
                 (Printf.sprintf "%d of %d requests completed"
                    outcome.Service.o_completed requests);
             ]
           else []);
          List.map (fun id -> Starved id) outcome.Service.o_starved;
          (if not report.Slo.r_sane then
             [ Slo_insane "latency report has p99 below p50" ]
           else if
             sc.Scenario.slo_p99_ms > 0
             && report.Slo.r_completed > 0
             && report.Slo.r_p99_us
                > float_of_int sc.Scenario.slo_p99_ms *. 1_000.0
           then
             [
               Slo_insane
                 (Printf.sprintf
                    "p99 %.0f us breaches the declared %d ms objective"
                    report.Slo.r_p99_us sc.Scenario.slo_p99_ms);
             ]
           else []);
        ]
      |> List.stable_sort (fun a b -> compare (rank a) (rank b))
  in
  { index; scenario = sc; violations; runs = [] }

let run ?(index = -1) (sc : Scenario.t) =
  if sc.Scenario.tenants > 1 then run_service ~index sc
  else run_single ~index sc

(* {1 Campaigns} *)

let campaign ?(jobs = 1) ?progress ~seed ~count () =
  let exec i = run ~index:i (Scenario.generate ~seed ~index:i) in
  let indices = List.init count Fun.id in
  if jobs <= 1 then
    List.map
      (fun i ->
        let r = exec i in
        (match progress with Some f -> f r | None -> ());
        r)
      indices
  else
    (* Scenario-per-item sharding: each run builds its own platform (the
       geometry varies run to run, so pooling buys nothing) and depends
       only on (campaign seed, index) — results are independent of
       [jobs]. *)
    Par.Pool.map (Par.Pool.shared ~domains:jobs) ~chunk:1 exec indices
    |> List.map (fun r ->
           (match progress with Some f -> f r | None -> ());
           r)

let soak ~more ~seed batch =
  let rec go b acc =
    if more b then go (b + 1) ((seed + b, batch ~seed:(seed + b)) :: acc)
    else List.rev acc
  in
  go 0 []

type summary = {
  scenarios : int;
  passes : int;
  by_class : (string * int) list;
}

let summarize reports =
  let tally = Hashtbl.create 7 in
  let passes = ref 0 in
  List.iter
    (fun r ->
      match classification r with
      | "pass" -> incr passes
      | cls ->
        Hashtbl.replace tally cls (1 + Option.value ~default:0 (Hashtbl.find_opt tally cls)))
    reports;
  {
    scenarios = List.length reports;
    passes = !passes;
    by_class =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
      |> List.sort compare;
  }

let print_summary ppf s =
  Format.fprintf ppf "%d scenarios: %d passed, %d violated@." s.scenarios
    s.passes (s.scenarios - s.passes);
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "  %-14s %d@." cls n)
    s.by_class

(* {1 Shrinking}

   Textbook delta debugging over the scenario record: propose
   strictly-smaller candidates (drop fault events in halves then singly,
   drop rate rules, collapse the app mix, halve the input, reset geometry
   fields to the default) and keep the first one that still shows the
   original violation class. Greedy first-improvement terminates because
   the measure strictly decreases at every accepted step. *)

let candidates (sc : Scenario.t) =
  let drop_i l i = List.filteri (fun j _ -> j <> i) l in
  let evs = sc.Scenario.events in
  let n = List.length evs in
  let halves =
    if n > 1 then
      [
        { sc with Scenario.events = List.filteri (fun i _ -> i < n / 2) evs };
        { sc with Scenario.events = List.filteri (fun i _ -> i >= n / 2) evs };
      ]
    else []
  in
  let singles =
    List.init n (fun i -> { sc with Scenario.events = drop_i evs i })
  in
  let rates =
    (if sc.Scenario.rates <> [] then [ { sc with Scenario.rates = [] } ]
     else [])
    @ List.init
        (List.length sc.Scenario.rates)
        (fun i -> { sc with Scenario.rates = drop_i sc.Scenario.rates i })
  in
  let apps =
    if List.length sc.Scenario.apps > 1 then
      List.map (fun a -> { sc with Scenario.apps = [ a ] }) sc.Scenario.apps
    else []
  in
  let kb =
    if sc.Scenario.input_kb > 1 then
      [ { sc with Scenario.input_kb = sc.Scenario.input_kb / 2 } ]
    else []
  in
  List.filter (fun c -> c <> sc)
    (halves @ singles @ rates @ apps @ kb @ Scenario.resets sc)

let shrink ?(max_steps = 64) ~cls sc0 =
  let rec go sc steps =
    if steps <= 0 then sc
    else
      let smaller =
        List.filter
          (fun c -> Scenario.measure c < Scenario.measure sc)
          (candidates sc)
      in
      match
        List.find_opt (fun c -> classification (run c) = cls) smaller
      with
      | Some c -> go c (steps - 1)
      | None -> sc
  in
  go sc0 max_steps

(* {1 Corpus}

   One file per minimal repro. The content is the serialised scenario
   plus an [# expect:] header carrying the violation class, so a corpus
   file is self-checking: replay runs the scenario and compares the
   classification against the header. *)

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let corpus_entry r =
  Printf.sprintf
    "# chaos repro — replay with: rvisim chaos --replay <this file>\n\
     # expect: %s\n\
     %s\n"
    (classification r)
    (Scenario.to_string r.scenario)

let corpus_filename ~campaign_seed r =
  Printf.sprintf "seed%d-i%04d-%s.scenario" campaign_seed (max 0 r.index)
    (classification r)

let save_corpus ~dir ~campaign_seed reports =
  mkdir_p dir;
  List.map
    (fun r ->
      let path = Filename.concat dir (corpus_filename ~campaign_seed r) in
      let oc = open_out path in
      output_string oc (corpus_entry r);
      close_out oc;
      path)
    reports

let load_corpus_file path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | line -> lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let all = lines [] in
  close_in ic;
  let expect =
    List.find_map
      (fun l ->
        let prefix = "# expect: " in
        if String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then Some (String.trim (String.sub l (String.length prefix)
                                  (String.length l - String.length prefix)))
        else None)
      all
  in
  match
    List.find_opt
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      all
  with
  | None -> Error (path ^ ": no scenario line")
  | Some line -> (
    match Scenario.of_string line with
    | Ok sc -> Ok (sc, expect)
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let replay path =
  match load_corpus_file path with
  | Error e -> Error e
  | Ok (sc, expect) ->
    let r = run sc in
    let cls = classification r in
    (match expect with
    | Some want when want <> cls ->
      Error
        (Printf.sprintf "%s: expected %s, observed %s" path want cls)
    | _ -> Ok r)
