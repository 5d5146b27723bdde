(** The generative chaos harness: run scenarios, classify them against
    the declared invariants, shrink failures to minimal repros, and
    persist those as a self-checking corpus.

    The invariants every scenario inside the generated envelope must
    hold:

    - {b no crash} — no uncaught exception anywhere in the stack;
    - {b consistency} — the VIM consistency checker (software frame table
      vs hardware TLBs, both levels in SVA mode) is clean after the run;
    - {b bit-exact output} — the delivered output (hardware or verified
      software fallback) matches the golden reference;
    - {b recovery converges} — faults end in recovery or a verifiable
      degrade, never an unrecovered failure;
    - {b progress} — the run finishes well under 500 ms simulated;
    - {b stat sanity} — the report's counters are coherent.

    Multi-tenant scenarios ([tenants > 1]) run through the service
    ({!Rvi_svc.Service}) instead of the single-tenant runner and add two
    more invariants:

    - {b no starvation} — no tenant with queued work goes a whole
      starvation budget without progress;
    - {b SLO sanity} — the latency report is statistically possible
      (p99 >= p50, aggregate and per tenant) and, when the scenario
      declares a p99 objective, the measured p99 meets it. *)

type violation =
  | Crash of string
  | Inconsistent of string
  | Bad_output of string
  | Unrecovered of string
  | Progress_gap of float  (** run time in ms *)
  | Stat_insane of string
  | Starved of int  (** tenant id *)
  | Slo_insane of string

val violation_class : violation -> string
(** Stable label: ["crash"], ["inconsistent"], ["bad-output"],
    ["unrecovered"], ["progress-gap"], ["stat-insane"], ["starved"] or
    ["slo-insane"]. *)

val violation_detail : violation -> string

type report = {
  index : int;  (** campaign index, [-1] for ad-hoc runs *)
  scenario : Scenario.t;
  violations : violation list;  (** most severe first; empty = pass *)
  runs : Rvi_harness.Faults.run_result list;  (** one per app of the mix *)
}

val classification : report -> string
(** ["pass"] or the class of the most severe violation — the label the
    shrinker preserves and the corpus' [# expect:] header records. *)

val run : ?index:int -> Scenario.t -> report
(** Execute one scenario. Single-tenant: every application of the mix
    through the full stack under the scenario's injector, with the VIM
    consistency checker probed on the live platform after each run.
    Multi-tenant: a closed-loop service campaign of two requests per
    tenant under the same injector, classified against the service
    invariants ([runs] is empty for these). Deterministic in the
    scenario alone. *)

val campaign :
  ?jobs:int -> ?progress:(report -> unit) -> seed:int -> count:int -> unit ->
  report list
(** [count] generated scenarios ({!Scenario.generate}) executed
    scenario-per-shard over the shared domain pool when [jobs > 1].
    Report [i] depends only on [(seed, i)], so the corpus and the
    classification are independent of [jobs] and reproducible from the
    seed. [progress] fires per report (post-barrier in parallel runs). *)

val soak :
  more:(int -> bool) -> seed:int -> (seed:int -> report list) ->
  (int * report list) list
(** [soak ~more ~seed batch] runs [batch ~seed:(seed + b)] once for each
    batch [b = 0, 1, ...] while the stop condition [more b] holds, and
    keeps every batch's reports beside its seed. *)

type summary = {
  scenarios : int;
  passes : int;
  by_class : (string * int) list;  (** violation class -> count, sorted *)
}

val summarize : report list -> summary
val print_summary : Format.formatter -> summary -> unit

val shrink : ?max_steps:int -> cls:string -> Scenario.t -> Scenario.t
(** Delta-debug a violating scenario down to a minimal repro with the
    same classification: drop fault events (halves, then singles), drop
    rate rules, collapse the app mix, halve the input, reset geometry to
    the default — accepting only strictly {!Scenario.measure}-smaller
    candidates that still classify as [cls]. Greedy first-improvement;
    terminates because the measure strictly decreases. *)

(** {1 Corpus persistence} *)

val save_corpus : dir:string -> campaign_seed:int -> report list -> string list
(** Write one file per report under [dir] (created as needed): the
    serialised scenario plus an [# expect: <class>] header. Returns the
    paths. Deterministic names and contents. *)

val replay : string -> (report, string) result
(** Load a corpus file, run it, and check the observed classification
    against the [# expect:] header; [Error] on mismatch or parse
    failure. *)
