(** Chaos scenarios as first-class values.

    A scenario bundles everything one adversarial run depends on: the
    application mix and input size, the platform geometry (device, IMU
    variant, TLB size and organization, replacement policy, prefetch,
    transfer mode, translation scheme), the fault plan (rate-based
    injection rules plus deterministic one-shot events) and the recovery
    budget (watchdog, execution retries, VIM retries). Scenarios
    serialise to a single [key=value;...] line that round-trips
    bit-exactly, which is what the corpus under [results/corpus/] and the
    pinned regressions under [test/corpus/] store. *)

type t = {
  seed : int;  (** injector / workload seed of the run *)
  apps : string list;  (** application mix, from {!Rvi_harness.Faults.app_names} *)
  input_kb : int;  (** per-application input size (KB, >= 1) *)
  device : string;  (** {!Rvi_fpga.Device.by_name} *)
  translation : Rvi_core.Translation_mode.t;
  imu : Rvi_harness.Config.imu_kind;
  tlb_entries : int option;  (** [None]: one entry per dual-port page *)
  tlb_org : Rvi_core.Tlb.organization;
  policy : string;  (** replacement policy name *)
  prefetch_depth : int;  (** [0] = prefetch off *)
  transfer : Rvi_core.Vim.transfer_mode;
  rates : Rvi_inject.Spec.t;  (** rate-based fault rules *)
  events : (Rvi_inject.Fault.kind * int) list;
      (** deterministic one-shot faults: fire at the n-th injection
          opportunity of the kind (1-based) *)
  watchdog_us : int;  (** [0] = watchdog disabled (capped at 2 s simulated) *)
  exec_retries : int;
  max_retries : int;  (** VIM in-recovery retry budget *)
  tenants : int;
      (** [> 1] routes the run through the multi-tenant service
          ({!Rvi_svc.Service}) instead of the single-tenant runner *)
  slo_p99_ms : int;
      (** declared p99 latency objective for service runs; [0] = none *)
}

val default : t
(** The paper's system under no injection: EPXA1, FIFO, per-page TLB,
    4 KB of input to ADPCM, 10 ms watchdog. *)

val known_bad : t
(** The seeded adversarial scenario the shrinker acceptance starts from:
    coprocessor hang + lost IRQ one-shots with the watchdog disabled —
    the interface can never be reclaimed, violating the progress
    invariant. *)

(** {1 The knob table}

    Each axis of a scenario, declared once: serialisation, parsing,
    generation, the shrinking measure and resets, {!config} and rvisim's
    shared flags are folds over {!knobs}. *)

type 'a tag = { print : 'a -> string; parse : string -> ('a, string) result }
(** A knob value's spelling; [parse] is its one range check. *)

type 'a flag =
  | Opt of { name : string; docv : string; doc : string; absent : string option }
      (** [--name=DOCV]; help shows [absent] as the default if given, else
          the default's tag ([""] shows none) *)
  | Switch of { name : string; doc : string; on : 'a }  (** [--name] selects [on] *)

type 'a knob = {
  key : string;  (** in the scenario line *)
  tag : 'a tag;
  get : t -> 'a;  (** the default is [get default] *)
  set : t -> 'a -> t;
  flag : 'a flag option;
  config : 'a -> Rvi_harness.Config.t -> Rvi_harness.Config.t;
  weight : 'a -> int;  (** share of {!measure} *)
  reset : bool;  (** the shrinker tries the default *)
  keyed_errors : bool;  (** parse errors read [key: error] *)
  draw : Rvi_sim.Prng.t -> t -> 'a;  (** {!generate}'s draw, given the draws so far *)
  phase : int;  (** {!generate} draws phase by phase, in table order within one *)
}

type any_knob = Knob : 'a knob -> any_knob

val knobs : any_knob list
(** In scenario line order. *)

val config : t -> Rvi_harness.Config.t
(** The platform configuration of a scenario: every knob applied to
    {!Rvi_harness.Config.default}, recovery budget included. *)

val to_string : t -> string
(** One line, fixed field order; round-trips through {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} form. Unknown fields, devices, policies or
    fault kinds are errors; omitted fields take their {!default} value. *)

val generate : seed:int -> index:int -> t
(** Scenario [index] of campaign [seed], via [Prng.derive] — a pure
    function of the two, independent of sharding or host. Generated
    scenarios stay inside the envelope the recovery machinery is
    specified to survive (sane watchdogs, nonzero retry budgets, bounded
    fault pressure): any invariant violation found on one is a real bug. *)

val measure : t -> int
(** Shrinking order: fault events dominate, then rate rules, workload
    breadth, input size and non-default geometry. The shrinker only
    accepts candidates of strictly smaller measure. *)

val resets : t -> t list
(** The scenario with one knob put back to its default, for every knob
    the shrinker may reset, in table order. *)
