module Simtime = Rvi_sim.Simtime
module Prng = Rvi_sim.Prng
module Par = Rvi_par.Par
module Trace = Rvi_obs.Trace
module Spec = Rvi_inject.Spec
module Injector = Rvi_inject.Injector

type outcome =
  | Clean
  | Recovered of { retries : int }
  | Degraded of { reason : string; verified : bool }
  | Failed of string
  | Crashed of string

let outcome_name = function
  | Clean -> "ok"
  | Recovered _ -> "recovered"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"
  | Crashed _ -> "crashed"

type run_result = {
  index : int;
  seed : int;
  app : string;
  outcome : outcome;
  injected : int;
  total_ms : float;
}

type summary = {
  runs : int;
  clean : int;
  recovered : int;
  degraded : int;
  failed : int;
  crashed : int;
  injected : int;
  bad_degraded : int;
}

(* {1 Workloads}

   One small input per application, each chosen so the working set does not
   fit the eight-page dual-port memory: the runs page, which exercises the
   copy, TLB-refill and writeback paths the injector targets. *)

let workloads ~seed =
  Array.of_list
    (List.map2
       (fun kind bytes -> (Jobs.app_name kind, Jobs.generate kind ~seed ~bytes))
       Jobs.kinds [ 4096; 8192; 8192; 12288 ])

(* A hang only terminates through the watchdog, so campaigns want one
   short enough to keep hung runs cheap while staying far above any gap a
   healthy run produces (eager mapping leaves the ADPCM decoder computing
   for several milliseconds between its few page faults). *)
let default_watchdog = Simtime.of_ms 10

(* One platform pool per domain: campaign shards run on pooled worker
   domains, and domain-local storage gives each worker its own pool
   without any sharing or locking. The pooled-reset contract (reset
   platform == fresh platform, byte for byte) keeps results independent
   of which pool — or none — served a run. *)
let platform_pools : Platform.Pool.t Domain.DLS.key =
  Domain.DLS.new_key Platform.Pool.create

(* One draw log per domain, likewise: a run that records its draws
   empties it first, so one buffer serves every recording run. *)
let draw_logs : Injector.log Domain.DLS.key =
  Domain.DLS.new_key Injector.create_log

(* Build one named application workload with roughly [bytes] of input
   (rounded to the application's natural granule, with a floor that keeps
   the working set larger than a couple of dual-port pages). The chaos
   harness uses this to vary input size as a scenario dimension. *)
let workload_of ~seed ~bytes name =
  match List.find_opt (fun k -> Jobs.app_name k = name) Jobs.kinds with
  | Some kind ->
    (name, Jobs.generate kind ~seed ~bytes:(Jobs.normalize_bytes kind (max 512 bytes)))
  | None -> invalid_arg (Printf.sprintf "Faults.workload_of: unknown app %S" name)

let app_names = List.map Jobs.app_name Jobs.kinds

let run_one ?trace ?pool ?base ?(events = []) ?inspect ?translation ?recipe
    ?log ~spec ~recovery ~watchdog ~exec_retries ~seed (name, input) =
  let inj = Injector.create ~seed ~spec in
  if events <> [] then Injector.set_events inj events;
  Injector.set_log inj log;
  let base = match base with Some b -> b | None -> Config.default () in
  let translation =
    match translation with Some t -> t | None -> base.Config.translation
  in
  let cfg =
    {
      base with
      Config.injector = Some inj;
      recovery;
      watchdog;
      exec_retries;
      trace;
      translation;
    }
  in
  let row =
    try
      Ok (Runner.run ?pool ?inspect ?recipe cfg Runner.Vim input)
    with e -> Error (Printexc.to_string e)
  in
  let injected = Injector.injected_total inj in
  let outcome, total_ms =
    match row with
    | Error msg -> (Crashed msg, 0.0)
    | Ok row -> (
      let ms = Simtime.to_ms row.Report.total in
      match row.Report.outcome with
      | Report.Measured when row.Report.verified ->
        if injected = 0 then (Clean, ms)
        else (Recovered { retries = row.Report.retries }, ms)
      | Report.Measured -> (Failed "output not verified", ms)
      | Report.Degraded reason ->
        (Degraded { reason; verified = row.Report.verified }, ms)
      | Report.Exceeds_memory -> (Failed "exceeds memory", ms)
      | Report.Failed m -> (Failed m, ms))
  in
  { index = 0; seed; app = name; outcome; injected; total_ms }

(* Capacity of the per-run trace sinks a parallel campaign allocates: a
   single run emits at most a few hundred events, so 4096 slots never
   drop in practice while 1000-run campaigns stay tens of megabytes. *)
let shard_trace_capacity = 4096

let campaign ?trace ?(spec = Spec.all ())
    ?(recovery = Rvi_core.Vim.default_recovery)
    ?(watchdog = default_watchdog) ?(exec_retries = 2) ?progress ?(jobs = 1)
    ?chunk ?(reuse_platforms = true) ?translation ~runs ~seed () =
  let master = Prng.create ~seed in
  let apps = workloads ~seed in
  (* Per-run seeds come off a master stream drawn serially *before* any
     sharding, so run [i]'s seed is a function of (campaign seed, i)
     alone — never of shard order or domain count — and one campaign
     seed reproduces every run. *)
  let run_seeds = Array.init runs (fun _ -> Prng.next master land 0x3FFF_FFFF) in
  (* Every run of a workload reads one recipe. Its reference is forced
     here, before any sharding: forcing a lazy value from two domains at
     once raises [CamlinternalLazy.Undefined]. *)
  let recipes =
    Array.map
      (fun (_, input) ->
        let r = Jobs.recipe input in
        ignore (Lazy.force r.Jobs.expected);
        r)
      apps
  in
  (* Golden runs: per workload, the first run that injected nothing and
     the draws it made. Until its first hit, a run's seed changes only
     its injector's draws, so every run of a workload whose draws over
     the golden log all miss injects nothing and ends exactly as the
     golden run did: it takes that result without being simulated. A
     traced campaign simulates every run, since a trace records the
     simulation. With several domains the first zero-injection run to
     finish sets the golden run; any of them gives the same result. *)
  let elide = Option.is_none trace in
  let thresholds = Injector.thresholds spec in
  let golden = Array.map (fun _ -> Atomic.make None) apps in
  let exec i ?trace () =
    let w = i mod Array.length apps in
    let seed = run_seeds.(i) in
    match if elide then Atomic.get golden.(w) else None with
    | Some (g, log) when Injector.quiet ~seed thresholds log ->
      { g with index = i; seed }
    | known ->
      (* Resolved per call so each worker domain sees its own pool. *)
      let pool =
        if reuse_platforms then Some (Domain.DLS.get platform_pools) else None
      in
      let log =
        if elide && Option.is_none known then
          Some (Domain.DLS.get draw_logs)
        else None
      in
      let r =
        run_one ?trace ?pool ?translation ~recipe:recipes.(w) ?log ~spec
          ~recovery ~watchdog ~exec_retries ~seed apps.(w)
      in
      (match log with
      | Some log when r.injected = 0 ->
        ignore
          (Atomic.compare_and_set golden.(w) None
             (Some (r, Injector.copy_log log)))
      | _ -> ());
      { r with index = i }
  in
  if jobs <= 1 then
    (* Serial path: runs share the caller's sink and [progress] fires as
       each run completes — bit-identical to the pre-parallel code. *)
    List.init runs (fun i ->
        let r = exec i ?trace () in
        (match progress with Some f -> f r | None -> ());
        r)
  else begin
    let chunk =
      match chunk with Some c -> c | None -> Par.default_chunk ~domains:jobs runs
    in
    (* Each run records into its own sink stamped with its (deterministic)
       chunk ordinal; sinks merge into the caller's trace in run order
       after the barrier, so the merged event stream does not depend on
       which domain ran which chunk. [progress] also fires post-barrier,
       in run order. *)
    let results =
      Par.Pool.map (Par.Pool.shared ~domains:jobs) ~chunk
        (fun i ->
          let local =
            Option.map
              (fun _ ->
                Trace.create ~capacity:shard_trace_capacity
                  ~shard:(Par.shard_of_index ~chunk i) ())
              trace
          in
          (exec i ?trace:local (), local))
        (List.init runs Fun.id)
    in
    List.map
      (fun (r, local) ->
        (match (trace, local) with
        | Some into, Some src -> Trace.merge_into ~into src
        | _ -> ());
        (match progress with Some f -> f r | None -> ());
        r)
      results
  end

let summarize results =
  List.fold_left
    (fun s (r : run_result) ->
      let s = { s with runs = s.runs + 1; injected = s.injected + r.injected } in
      match r.outcome with
      | Clean -> { s with clean = s.clean + 1 }
      | Recovered _ -> { s with recovered = s.recovered + 1 }
      | Degraded { verified; _ } ->
        {
          s with
          degraded = s.degraded + 1;
          bad_degraded = (s.bad_degraded + if verified then 0 else 1);
        }
      | Failed _ -> { s with failed = s.failed + 1 }
      | Crashed _ -> { s with crashed = s.crashed + 1 })
    {
      runs = 0;
      clean = 0;
      recovered = 0;
      degraded = 0;
      failed = 0;
      crashed = 0;
      injected = 0;
      bad_degraded = 0;
    }
    results

let passed s = s.crashed = 0 && s.bad_degraded = 0

let pct s n = if s.runs = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int s.runs

let survival s = pct s (s.clean + s.recovered + (s.degraded - s.bad_degraded))

let print_summary ppf s =
  Format.fprintf ppf
    "%d runs, %d faults injected: %d clean, %d recovered, %d degraded (%d \
     bad), %d failed, %d crashed@."
    s.runs s.injected s.clean s.recovered s.degraded s.bad_degraded s.failed
    s.crashed;
  Format.fprintf ppf
    "  survival %.1f%%  (recovery %.1f%%, degradation %.1f%%)@." (survival s)
    (pct s s.recovered) (pct s s.degraded)

let outcome_detail = function
  | Clean -> ""
  | Recovered { retries } -> string_of_int retries
  | Degraded { reason; _ } -> reason
  | Failed m | Crashed m -> m

let csv results =
  let b = Buffer.create 1024 in
  Buffer.add_string b "run,seed,app,outcome,detail,injected,verified,total_ms\n";
  List.iter
    (fun r ->
      let verified =
        match r.outcome with
        | Clean | Recovered _ -> true
        | Degraded { verified; _ } -> verified
        | Failed _ | Crashed _ -> false
      in
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%s,%s,%S,%d,%b,%.6f\n" r.index r.seed r.app
           (outcome_name r.outcome)
           (outcome_detail r.outcome)
           r.injected verified r.total_ms))
    results;
  Buffer.contents b

(* {1 Sweep} *)

type cell = { factor : float; max_retries : int; cell_summary : summary }

let sweep ?trace ?(factors = [ 0.5; 1.0; 2.0; 4.0 ])
    ?(retry_policies = [ 0; 1; 3 ]) ?(watchdog = default_watchdog) ?(jobs = 1)
    ~runs ~seed () =
  let cells =
    List.concat_map
      (fun factor -> List.map (fun retries -> (factor, retries)) retry_policies)
      factors
  in
  (* Cells are independent campaigns (each reseeds from [seed]), so the
     matrix shards cell-per-item: campaigns inside a cell stay serial,
     which keeps every cell bit-identical to a lone [campaign] call. *)
  Par.Pool.mapi (Par.Pool.shared ~domains:jobs) ~chunk:1
    (fun cell_index (factor, max_retries) ->
      let spec = Spec.all ~factor () in
      let recovery =
        { Rvi_core.Vim.default_recovery with Rvi_core.Vim.max_retries }
      in
      let local =
        if jobs <= 1 then trace
        else
          (* A cell holds a whole campaign, so give it a full-size ring
             rather than the per-run capacity. *)
          Option.map (fun _ -> Trace.create ~shard:cell_index ()) trace
      in
      let results =
        campaign ?trace:local ~spec ~recovery ~watchdog
          ~exec_retries:max_retries ~runs ~seed ()
      in
      let cell = { factor; max_retries; cell_summary = summarize results } in
      (cell, local))
    cells
  |> List.map (fun (cell, local) ->
         (if jobs > 1 then
            match (trace, local) with
            | Some into, Some src -> Trace.merge_into ~into src
            | _ -> ());
         cell)

let print_sweep ppf cells =
  Format.fprintf ppf "%-8s %-8s %-10s %-10s %-10s %-8s@." "rate" "retries"
    "survival%" "recover%" "degrade%" "crashed";
  List.iter
    (fun c ->
      let s = c.cell_summary in
      Format.fprintf ppf "%-8.2f %-8d %-10.1f %-10.1f %-10.1f %-8d@." c.factor
        c.max_retries (survival s) (pct s s.recovered) (pct s s.degraded)
        s.crashed)
    cells
