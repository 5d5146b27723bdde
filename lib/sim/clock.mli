(** Clock domains driving synchronous components.

    A clock fires a rising edge every period. On each edge, every registered
    component first has its [compute] function called (it reads the values
    that other components committed on previous edges and decides its next
    state) and then its [commit] function (it publishes the new state). The
    two-phase discipline gives register-transfer semantics: all components
    observe a consistent pre-edge snapshot regardless of registration order.

    A component on a slower derived clock — the paper's 6 MHz IDEA core
    deriving from the 24 MHz memory clock — is wrapped by {!divided},
    which ticks it on every [divide]-th edge of the fast clock.

    {2 Batched execution and idle fast-forward}

    A batched clock (the default) holds one component; several become one
    through {!compose}. Edges are not one engine event each. Inside an
    engine run span (whose bound the engine publishes as its
    {!Engine.horizon}), the clock executes edges inline, advancing time
    itself, until the span ends, a queued event intervenes, or an
    interrupt source requests a break — so the per-edge cost is the
    component's two calls, with no closure allocation and no heap
    traffic. After every edge the component's [idle_hint] (see
    {!component}) says how many upcoming edges [skip] may apply instead
    of the clock executing them; the clock jumps over them in one step.
    Most such edges are idle; a fused station slot's also include the
    fixed bookkeeping edges of a TLB-hit access.

    Observable behaviour (component state, [cycles], observer timestamps,
    engine [now] at run-loop boundaries) is identical to the reference
    stepper, [~batched:false], which runs any number of slots one engine
    event per edge and never consults a hint; the qcheck equivalence
    properties in [test_sim] pin this. *)

type component = {
  name : string;
  compute : unit -> unit;
  commit : unit -> unit;
  idle_hint : (unit -> int) option;
  skip : (int -> unit) option;
}

val component :
  ?idle_hint:(unit -> int) ->
  ?skip:(int -> unit) ->
  name:string ->
  compute:(unit -> unit) ->
  commit:(unit -> unit) ->
  unit ->
  component
(** [idle_hint ()] returns how many of the component's {e own upcoming
    ticks} [skip] may apply instead of the clock executing them. A
    positive hint [h] promises that the next [h] ticks, run with frozen
    inputs — nothing outside the component executes and no input
    changes —
    - read no engine time, and
    - are applied exactly by [skip k] for any [k <= h]: component state,
      shared port state, memory, injector draws (in order) and every
      counter end as executing the [k] ticks would have left them.

    Most hints count idle ticks, whose only effect is accounting; a
    fused station slot's also count the latch, CAM-wait and access edges
    of a TLB-hit access ({!Rvi_core.Imu.fold_window}), which [skip]
    performs. [max_int] means "idle until an input changes", [0] means
    "my next tick must execute". Executing a tick instead of skipping it
    is always exact, which is why [~batched:false] (no hint is ever
    consulted) is the oracle. The hint must be a pure function of
    current state; the clock queries it after an edge's commits.

    [skip k] is called instead of [k] consecutive ticks the clock decided
    to fast-forward over; it must apply their exact aggregate effect.
    [idle_hint] and [skip] must be given together; a component that
    omits them reads as hint 0 and runs every edge (batched, but never
    skipped). *)

val compose : component -> component -> component
(** [compose a b] is one component behaving exactly like [a] and [b]
    registered back to back on the reference stepper: [a]'s
    compute/commit/skip always run before [b]'s, the composite idle hint
    is the min of the two, and a skip is forwarded to both. On an edge
    where only one side has work the other side's [compute]/[commit] run
    instead of its [skip 1] — indistinguishable by the idle-hint
    contract. *)

type t

val create : ?batched:bool -> Engine.t -> name:string -> freq_hz:int -> t
(** Creates a stopped clock attached to [engine]. [batched] defaults to
    [true]; [~batched:false] forces the seed one-event-per-edge scheduling
    and exists as the reference side of differential tests. *)

val add : t -> component -> unit
(** Registers a component, in order, O(1) amortised. A batched clock holds
    one: a second [add] raises [Invalid_argument] (use {!compose}). *)

(** {2 Clock division} *)

type divider
(** A divide ratio with its arithmetic precomputed (a power of two takes
    the phase with a mask and counts ticks with a shift). *)

val divider : int -> divider
(** Raises [Invalid_argument] if the ratio is below 1. *)

val enabled : t -> divider -> bool
(** Whether the current edge (cycle index a multiple of the ratio) is a
    tick of the divided clock. *)

val edges_of_ticks : t -> divider -> int -> int
(** [edges_of_ticks t d h] converts a divided component's hint of [h]
    own ticks into edges of [t] from the current one: the lead to the
    next enabled edge plus [h] divided periods ([max_int] on overflow). *)

val ticks_of_edges : t -> divider -> int -> int
(** [ticks_of_edges t d k] is the number of divided ticks among the [k]
    edges of [t] starting at the current one. *)

val divided : clock:t -> divide:int -> component -> component
(** [divided ~clock ~divide c] is a divide-1 component for [clock] that
    runs [c] on every [divide]-th edge ([cycles clock] a multiple of
    [divide], so {!stop}/{!start} and {!reset} keep the phase) and
    converts its hint and skips between its own ticks and [clock]'s
    edges. [divided ~clock ~divide:1 c] is [c]. Raises
    [Invalid_argument] if [divide < 1]. *)

val on_edge : t -> (int -> unit) -> unit
(** Registers an observer called after all commits on each edge with the
    just-completed cycle index. Used by waveform tracers. Observers must
    see every edge, so a clock with observers never skips (it still
    batches). *)

val start : t -> unit
(** Starts the clock: the first edge fires one period from now. Idempotent.

    Note the asserted stop/start contract: a {!stop}/[start] pair does not
    preserve edge phase — the restarted domain begins a fresh grid one full
    period after [start], like a reset release. Cycle timestamps therefore
    shift across VIM reconfigurations by design. *)

val stop : t -> unit
(** Stops the clock after the current edge, if any. Idempotent. *)

val running : t -> bool

val reset : t -> unit
(** Stops the clock and rewinds {!cycles} to zero while keeping every
    registered component and observer. After [reset], a {!start} produces
    the same edge grid and cycle indices as a freshly created clock —
    the contract the platform pool's in-place reuse relies on. *)

val cycles : t -> int
(** Number of edges elapsed since creation (executed or fast-forwarded). *)

val freq_hz : t -> int
val period : t -> Simtime.t
val name : t -> string
