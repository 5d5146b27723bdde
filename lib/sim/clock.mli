(** Clock domains driving synchronous components.

    A clock fires a rising edge every period. On each edge, every registered
    component first has its [compute] function called (it reads the values
    that other components committed on previous edges and decides its next
    state) and then its [commit] function (it publishes the new state). The
    two-phase discipline gives register-transfer semantics: all components
    observe a consistent pre-edge snapshot regardless of registration order.

    A component registered with [~divide:n] only ticks on edges where
    [cycle mod n = phase]; this models a slower derived clock, e.g. the
    paper's 6 MHz IDEA core deriving from the 24 MHz memory clock.

    {2 Batched execution and idle fast-forward}

    Edges are not one engine event each. Inside an engine run span (whose
    bound the engine publishes as its {!Engine.horizon}), the clock executes
    edges inline, advancing time itself, until the span ends, a queued event
    intervenes, or an interrupt source requests a break — so the per-edge
    cost is two array sweeps, with no closure allocation and no heap
    traffic. Observable behaviour (component call sequence, [cycles],
    observer timestamps, engine [now] at run-loop boundaries) is identical
    to per-edge scheduling; the qcheck equivalence property in [test_sim]
    pins this against the reference implementation ([~batched:false]).

    Components may additionally opt into fast-forward by providing
    [idle_hint]/[skip] (see {!component}): when every component of a domain
    reports its upcoming ticks as skippable, the clock jumps over them in
    O(components) instead of ticking through them, and [skip] applies
    their effect. Most such ticks are idle; a fused station slot's also
    include the fixed bookkeeping edges of a TLB-hit access. *)

type component = {
  name : string;
  compute : unit -> unit;
  commit : unit -> unit;
  idle_hint : (unit -> int) option;
  skip : (int -> unit) option;
  commit_hazard : bool;
}

val component :
  ?idle_hint:(unit -> int) ->
  ?skip:(int -> unit) ->
  ?commit_hazard:bool ->
  name:string ->
  compute:(unit -> unit) ->
  commit:(unit -> unit) ->
  unit ->
  component
(** [idle_hint ()] returns how many of the component's {e own upcoming
    ticks} [skip] may apply instead of the clock executing them. A
    positive hint [h] promises that the next [h] ticks, run with frozen
    inputs — no other component executes and no input changes —
    - read no engine time,
    - touch no state that another slot of this clock touches on those
      edges, and
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
    current state: it is re-queried at every edge where the component is
    enabled, {e in slot order during the compute phase}, so it sees
    everything earlier-registered slots latched for it this edge.

    [skip k] is called instead of [k] consecutive ticks the clock decided
    to fast-forward over; it must apply their exact aggregate effect.
    [idle_hint] and [skip] must be given together; components that omit
    them disable fast-forward (but not batching) for their whole clock
    domain.

    [commit_hazard] (default [false]) must be set when the component's
    commit phase consumes state that a {e later-registered} slot's compute
    may write in the same edge — e.g. a bus wrapper whose commit moves a
    request its owning coprocessor posted during compute. Such a slot's
    hint is re-checked at its commit turn before the tick is skipped;
    hazard-free slots elide the whole tick on the compute-turn hint
    alone. *)

val compose : component -> component -> component
(** [compose a b] is one component behaving exactly like [a] and [b]
    registered back to back on the same clock at the same rate: [a]'s
    compute/commit/skip always run before [b]'s, the composite idle hint
    is the min of the two, and a skip is forwarded to both. On an edge
    where only one side has work the other side's [compute]/[commit] run
    instead of its [skip 1] — indistinguishable by the idle-hint
    contract. Use it to collapse tightly-coupled pipelines (IMU and
    coprocessor wrapper) into a single slot and halve per-edge dispatch. *)

type t

val create : ?batched:bool -> Engine.t -> name:string -> freq_hz:int -> t
(** Creates a stopped clock attached to [engine]. [batched] defaults to
    [true]; [~batched:false] forces the seed one-event-per-edge scheduling
    and exists as the reference side of differential tests. *)

val add : ?divide:int -> ?phase:int -> t -> component -> unit
(** Registers a component, in order, O(1) amortised. [divide] defaults to 1
    (every edge); [phase] defaults to 0 and must satisfy
    [0 <= phase < divide]. *)

val on_edge : t -> (int -> unit) -> unit
(** Registers an observer called after all commits on each edge with the
    just-completed cycle index. Used by waveform tracers. Observers must
    see every edge, so a clock with observers never fast-forwards (it
    still batches). *)

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
