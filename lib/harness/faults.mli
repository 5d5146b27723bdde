(** Fault-injection campaigns.

    Runs the paper's applications under a seeded {!Rvi_inject} injector and
    classifies how each run ended: clean, recovered by the VIM/runner
    retry machinery, degraded to the software reference, failed, or
    crashed (an uncaught exception — always a bug). A campaign is a pure
    function of its seed: the master PRNG derives one injector seed per
    run, so the same seed replays identical per-run outcomes. *)

type outcome =
  | Clean  (** no fault was injected and the run verified *)
  | Recovered of { retries : int }
      (** faults were injected, yet the output verified; [retries] counts
          whole-execution retries (in-VIM recoveries don't need any) *)
  | Degraded of { reason : string; verified : bool }
      (** retries exhausted; the software fallback supplied the output *)
  | Failed of string  (** clean refusal (error return, bad output) *)
  | Crashed of string  (** uncaught exception — a robustness bug *)

val outcome_name : outcome -> string
(** ["ok"], ["recovered"], ["degraded"], ["failed"] or ["crashed"]. *)

type run_result = {
  index : int;
  seed : int;  (** the injector seed of this run *)
  app : string;
  outcome : outcome;
  injected : int;  (** faults actually injected *)
  total_ms : float;
}

type summary = {
  runs : int;
  clean : int;
  recovered : int;
  degraded : int;
  failed : int;
  crashed : int;
  injected : int;  (** faults injected across the whole campaign *)
  bad_degraded : int;
      (** degraded runs whose fallback output failed verification *)
}

val default_watchdog : Rvi_sim.Simtime.t
(** Campaign watchdog (10 ms simulated) — hung coprocessors only
    terminate through it, so campaigns want a much shorter one than the
    interactive default while staying above the largest healthy progress
    gap of the campaign workloads. *)

val workloads : seed:int -> (string * Jobs.input) array
(** The four campaign applications of {!Jobs.kinds}, named by
    {!Jobs.app_name}, with {!Jobs.generate}d inputs of 4096, 8192, 8192
    and 12288 bytes. *)

val app_names : string list
(** The campaign application names, in {!workloads} order. *)

val workload_of : seed:int -> bytes:int -> string -> string * Jobs.input
(** One named application ("adpcm", "idea", "fir" or "vecadd") with
    roughly [bytes] of {!Jobs.generate}d input: at least 512 bytes, so
    the working set exceeds the dual-port memory, then rounded up to the
    application's granule by {!Jobs.normalize_bytes}. Raises
    [Invalid_argument] on unknown names. *)

val run_one :
  ?trace:Rvi_obs.Trace.t ->
  ?pool:Platform.Pool.t ->
  ?base:Config.t ->
  ?events:(Rvi_inject.Fault.kind * int) list ->
  ?inspect:(Platform.t -> unit) ->
  ?translation:Rvi_core.Translation_mode.t ->
  ?recipe:Jobs.recipe ->
  spec:Rvi_inject.Spec.t ->
  recovery:Rvi_core.Vim.recovery ->
  watchdog:Rvi_sim.Simtime.t ->
  exec_retries:int ->
  seed:int ->
  string * Jobs.input ->
  run_result
(** One seeded run. [base] (default {!Config.default}) supplies the
    platform geometry — device, policy, TLB, prefetch — that the injector,
    recovery and watchdog settings are layered onto; [translation]
    defaults to the base configuration's mode. [events] arms deterministic
    one-shot faults on top of the rate-based [spec]
    (see {!Rvi_inject.Injector.set_events}); [inspect] runs against the
    live platform after the run (the chaos harness' consistency probe);
    [recipe] is passed on to {!Runner.run}. *)

val campaign :
  ?trace:Rvi_obs.Trace.t ->
  ?spec:Rvi_inject.Spec.t ->
  ?recovery:Rvi_core.Vim.recovery ->
  ?watchdog:Rvi_sim.Simtime.t ->
  ?exec_retries:int ->
  ?progress:(run_result -> unit) ->
  ?jobs:int ->
  ?chunk:int ->
  ?reuse_platforms:bool ->
  ?translation:Rvi_core.Translation_mode.t ->
  runs:int ->
  seed:int ->
  unit ->
  run_result list
(** [runs] seeded runs rotating over the four applications (ADPCM, IDEA,
    FIR, vector add) with working sets larger than the dual-port memory.

    [jobs] (default 1) shards the runs over that many domains through
    {!Rvi_par.Par.map}. Results are independent of [jobs]: every run's
    injector seed derives from the campaign seed and the run index
    alone, each parallel run records into its own trace sink (stamped
    with its chunk ordinal as the shard id) and sinks merge into
    [trace] in run order after the barrier. With [jobs = 1] the code
    path — shared sink, in-line [progress] — is exactly the historical
    serial one; with [jobs > 1], [progress] fires after the barrier, in
    run order. [chunk] overrides the shard size
    ({!Rvi_par.Par.default_chunk} otherwise).

    [reuse_platforms] (default [true]) serves runs from per-domain
    {!Platform.Pool}s — pooled platforms are reset, not rebuilt,
    between runs, which is where campaign throughput comes from. The
    reset contract makes results identical either way; set [false] to
    force a fresh platform per run (the property tests do). Parallel
    campaigns run on the shared persistent domain pool
    ({!Rvi_par.Par.Pool.shared}) rather than spawning domains per
    call.

    Each of the four workloads has one {!Jobs.recipe}, its reference
    forced before any run starts, which every run of that workload
    shares: a run only reads it, so the domains never race on it.

    [translation] (default [Paper_objects]) selects the address
    translation mode every run's platform is configured with, so the
    same campaign doubles as an IOMMU/SVA soak test. *)

val summarize : run_result list -> summary

val passed : summary -> bool
(** No crashes and no unverified degraded output — the campaign's pass
    criterion. *)

val survival : summary -> float
(** Percentage of runs that ended with a correct output (clean, recovered,
    or degraded with a verified fallback). *)

val print_summary : Format.formatter -> summary -> unit

val csv : run_result list -> string
(** Header plus one line per run. *)

(** {1 Rate × policy sweep} *)

type cell = { factor : float; max_retries : int; cell_summary : summary }

val sweep :
  ?trace:Rvi_obs.Trace.t ->
  ?factors:float list ->
  ?retry_policies:int list ->
  ?watchdog:Rvi_sim.Simtime.t ->
  ?jobs:int ->
  runs:int ->
  seed:int ->
  unit ->
  cell list
(** The full [factors x retry_policies] matrix. [jobs] (default 1)
    shards whole cells over domains — each cell is an independent
    reseeded campaign, so cell summaries are identical whatever [jobs]
    is; per-cell trace sinks (shard id = cell index) merge into [trace]
    in cell order. *)

val print_sweep : Format.formatter -> cell list -> unit
