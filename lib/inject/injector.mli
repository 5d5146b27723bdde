(** The runtime fault injector.

    One injector is shared by every hardware model of a platform (dual-port
    RAM, interrupt controller, IMU) and by the VIM. At each injection
    opportunity the owning component calls {!fire}; the injector draws from
    its own seeded PRNG stream and answers whether the fault happens now.

    Determinism: the outcome of a run is a pure function of the injector
    seed, the specification and the workload — the injector never consults
    wall-clock time or global randomness, so campaigns replay bit-identically
    from their seed. *)

type t

val create : seed:int -> spec:Spec.t -> t

val seed : t -> int
val spec : t -> Spec.t

val fire : t -> Fault.kind -> bool
(** One injection opportunity. [true] means the caller must inject the
    fault now. Kinds with no rule (or rate 0) never fire and consume no
    PRNG state, so disabling a kind does not shift the others' streams. *)

(** {1 Draw logs}

    A run's seed reaches its trajectory only through {!fire}'s Bernoulli
    draws, one per armed opportunity, until the first one hits. Two runs
    of one workload therefore see the same opportunities, in the same
    order, up to their first hit. Recording the draws of a run that
    injected nothing lets {!quiet} decide, without simulating, whether
    another seed would also inject nothing — and so follow the same
    trajectory to the same result. *)

type log
(** The {!Fault.index} of every Bernoulli draw, in draw order. *)

val create_log : unit -> log

val set_log : t -> log option -> unit
(** [set_log t (Some l)] empties [l] and appends every later Bernoulli
    draw of [t] to it; event hits and unarmed kinds draw nothing and
    record nothing. A log can be reused from run to run. *)

val copy_log : log -> log
(** A frozen copy, for keeping past the reuse of the original. *)

type thresholds
(** The Bernoulli threshold of every kind under a specification. *)

val thresholds : Spec.t -> thresholds

val quiet : seed:int -> thresholds -> log -> bool
(** [quiet ~seed thr log] replays the draws of an injector created with
    [~seed] over the opportunities of [log], through the same PRNG
    stream and threshold test as {!fire}, and answers [true] when none
    of them hits. If [log] was recorded by a run that injected nothing
    under a spec with thresholds [thr] and no events, the same run under
    [~seed] injects nothing exactly when [quiet] holds. Allocates only
    the PRNG. *)

val set_events : t -> (Fault.kind * int) list -> unit
(** Arm deterministic one-shot events: [(kind, n)] makes {!fire} answer
    [true] at the [n]-th injection opportunity (1-based) for [kind],
    regardless of any Bernoulli rule. An event hit consumes no PRNG state
    — background rate streams replay identically with or without events
    armed on other kinds. Duplicate ordinals for one kind collapse;
    ordinals must be >= 1 ([Invalid_argument] otherwise). The scenario
    harness uses this to replay shrunk fault schedules exactly. *)

val pending_events : t -> int
(** Events armed but not yet fired. *)

val draw : t -> int -> int
(** Uniform in [0, bound): pick which bit to flip, which TLB slot to
    corrupt, ... Raises [Invalid_argument] if [bound <= 0]. *)

val set_enabled : t -> bool -> unit
(** Disarm ([false]) or re-arm the injector; while disarmed {!fire} always
    answers [false] without consuming PRNG state. *)

val enabled : t -> bool

val set_observer : t -> (Fault.kind -> unit) option -> unit
(** Called once per injected fault — the observability layer uses it to
    timestamp injections. *)

val observed : t -> bool
(** Whether an observer is attached. A clocked component that would
    apply an injection opportunity ahead of its edge's engine time (the
    IMU's folded accesses) must not while one is, since the observer
    stamps the fault with the current engine time. *)

val stats : t -> Rvi_sim.Stats.t
(** Per-kind counters: ["chances_<kind>"] (opportunities seen) and
    ["injected_<kind>"]. *)

val injected : t -> Fault.kind -> int
val injected_total : t -> int
