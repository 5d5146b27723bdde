(** Closed batches on the service: lattice multiprogramming.

    [FPGA_LOAD] "ensures the exclusive use of the resource" (§3.1), which
    makes the lattice a scheduled resource as soon as several
    applications want coprocessors — the concern of the related work the
    paper cites (Walder & Platzner; Dales). A closed batch is the
    service with one tenant whose jobs are all submitted at time zero
    and no later arrivals: [Fcfs] runs them in submission order,
    reconfiguring whenever the kind changes, while [Grouped] batches
    them by bit-stream. Because the Excalibur reconfigures in tens of
    milliseconds, the difference is the whole experiment. *)

type job = { kind : Rvi_harness.Jobs.app_kind; seed : int; bytes : int }

val mixed : seed:int -> jobs_per_app:int -> job list
(** The standard workload: interleaved adpcm (4 KB), IDEA (4 KB) and FIR
    (8 KB) jobs, seeds [seed], [seed + 1], ... in submission order. *)

type result = {
  outcome : Service.outcome;
  completions : Tenant.completion list;  (** in completion order *)
}

val run : Rvi_harness.Config.t -> Sched_policy.t -> job list -> result
(** Submits the batch as one tenant's requests (all at time zero, ring
    sized to the batch) and runs the service until every job completes.
    A closed batch has no later arrival to protect, so [Grouped]'s aging
    escape is set past any batch's makespan. *)

val all_clean : result -> bool
(** Every job completed, each verified on its first execution. *)

val multiprogramming :
  ?jobs_per_app:int ->
  Format.formatter ->
  Rvi_harness.Config.t ->
  (string * result) list
(** The [multiprog] experiment: {!mixed} (default 4 jobs per application,
    seeded from the configuration) under [fcfs] and [grouped], printed as
    makespan, reconfigurations and configuration time per policy. *)
