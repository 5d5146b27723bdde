(** The gated perf series for the serve campaign ([BENCH_serve.json]).

    Same machine-written JSON-array format and append discipline as
    [BENCH_campaign.json]: one entry per (policy, translation) cell,
    keyed by a ["serve-<policy>-<mode>"] benchmark label, the baseline
    read {e before} the new point is appended. The gate bounds host
    throughput regressions and simulated p99 growth. *)

type point = {
  benchmark : string;
  commit : string;
  host_cores : int;  (** {!Rvi_harness.Trajectory.host_cores} *)
  recommended_domains : int;  (** [Domain.recommended_domain_count] *)
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

val benchmark_label : Serve.cell -> string
val of_result : ?jobs:int -> ?deterministic:bool -> Serve.cell_result -> point

val default_path : string
(** ["BENCH_serve.json"]. *)

val append : ?path:string -> point -> string
(** Appends the point, creating the file if needed; returns the path. *)

type baseline = { base_runs_per_sec : float; base_p99_us : float }

val last_baseline :
  ?path:string -> benchmark:string -> tenants:int -> requests:int -> unit ->
  baseline option
(** The newest point of the given series measured at the same cell size
    (tenants and requests) — call before {!append}. Points of other sizes
    never gate each other: requests/s depends on the cell size. *)

val gate : tolerance:float -> baseline:baseline option -> point -> string list
(** Failure descriptions; empty means the gate passes (or no baseline
    exists yet). *)

val print : Format.formatter -> point -> unit
