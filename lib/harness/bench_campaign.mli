(** Wall-clock benchmark of the campaign runner, kept as a trajectory.

    Times the same seeded fault campaign serially and with [jobs]
    domains, checks the two classify every run identically (the
    {!Rvi_par.Par} determinism contract, asserted on real wall time, not
    just in unit tests), and appends the numbers as one {e trajectory
    point} to the [BENCH_campaign.json] document — a JSON array, newest
    point last, so the repo history carries real before/after
    performance data instead of a single overwritten measurement.

    Each point records the short commit hash and the host's core count
    alongside the rates, so a regression check can tell "the simulator
    got slower" from "this is a different machine". *)

type point = {
  benchmark : string;
      (** series label: ["faults-campaign"] for the paper-mode campaign,
          ["faults-campaign-sva"] for the IOMMU/SVA one — regression
          gates compare within one series only *)
  commit : string;  (** [git rev-parse --short HEAD], ["unknown"] outside git *)
  host_cores : int;  (** {!Trajectory.host_cores} on the measuring host *)
  recommended_domains : int;  (** [Domain.recommended_domain_count] there *)
  runs : int;
  seed : int;
  jobs : int;
  serial_s : float;  (** wall-clock of the [jobs = 1] campaign *)
  parallel_s : float;  (** wall-clock of the [jobs = n] campaign *)
  serial_runs_per_sec : float;
  parallel_runs_per_sec : float;
  speedup : float;  (** [serial_s /. parallel_s] *)
  deterministic : bool;
      (** per-run classification vectors and merged summaries equal *)
  survival : float;  (** campaign survival %, a sanity anchor *)
  phase_setup_s : float;
      (** host seconds of the serial pass spent acquiring platforms,
          allocating buffers, loading and mapping ({!Runner.Phases}) *)
  phase_execute_s : float;  (** … spent in the FPGA_EXECUTE attempt loop *)
  phase_report_s : float;  (** … spent on stats reads and row assembly *)
}

val run :
  ?runs:int ->
  ?seed:int ->
  ?translation:Rvi_core.Translation_mode.t ->
  jobs:int ->
  unit ->
  point
(** Defaults: 200 runs, seed 2004, paper-mode translation. [translation]
    selects which campaign is timed and thereby the point's [benchmark]
    series label. *)

val point_json : point -> string
(** One trajectory entry (a JSON object, indented for the array). *)

val default_path : string
(** ["BENCH_campaign.json"]. *)

val append : ?path:string -> point -> string
(** Appends the point to the JSON array at [path] (default
    {!default_path}), creating the file if needed; returns the path. *)

val last_serial_rps :
  ?path:string -> ?benchmark:string -> unit -> float option
(** [serial_runs_per_sec] of the newest point of the [benchmark] series
    (default ["faults-campaign"]) already in the trajectory file — the
    committed baseline a regression gate compares against. [None] when
    the file is absent or holds no point of that series. *)

val print : Format.formatter -> point -> unit
