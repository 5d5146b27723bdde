(** Discrete-event simulation engine.

    The engine owns the global simulated clock and an event queue. Hardware
    clock domains ({!Clock}) schedule their edges here; the simulated
    operating system consumes software time by running the engine forward
    with {!advance}. *)

type t

val create : unit -> t

val now : t -> Simtime.t
(** Current simulated time. *)

val schedule_at : t -> Simtime.t -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] when simulated time reaches [time].
    Raises [Invalid_argument] if [time] is in the past. *)

val schedule_after : t -> Simtime.t -> (unit -> unit) -> unit
(** [schedule_after t delay f] is [schedule_at t (now t + delay) f]. *)

val step : t -> bool
(** Executes the earliest pending event. Returns [false] (and does nothing)
    if no event is pending. *)

val run_until : t -> Simtime.t -> unit
(** Executes every event scheduled strictly before or at the given time,
    then sets the clock to exactly that time. *)

val advance : t -> Simtime.t -> unit
(** [advance t dt] is [run_until t (now t + dt)]: consumes [dt] of simulated
    time, executing any hardware events that fall inside the span. This is
    how software execution cost is charged to the timeline. *)

val run_while : ?horizon:Simtime.t -> t -> (unit -> bool) -> unit
(** [run_while t cond] steps the engine as long as [cond ()] is [true] and
    events remain. Raises [Stalled] if the queue drains while [cond] still
    holds — that means the simulated hardware deadlocked.

    [horizon], when given, promises that [cond] becomes false no later
    than that time and that the only thing (other than time) that can turn
    [cond] false is an event calling {!request_break} (e.g. an interrupt
    turning pending). Clock domains use the promise to batch edges inline
    up to the horizon without re-entering the event queue between them. *)

(** {1 Inline batching support}

    The hooks {!Clock} uses to run many edges inside one queue event.
    A run loop publishes its span bound as the {!horizon}; a clock batch
    may advance time itself with {!jump_unchecked} as long as it never
    passes the horizon, a queued event, or an un-consumed break request. *)

val horizon : t -> Simtime.t option
(** Bound of the run span currently executing, [None] outside {!run_until}
    / {!advance} and outside a {!run_while} given an explicit horizon. *)

val peek_next : t -> Simtime.t option
(** Time of the earliest queued event. *)

val peek_ps : t -> int
(** Time of the earliest queued event in picoseconds, [max_int] when the
    queue is empty — the allocation-free form of {!peek_next} the clock's
    per-edge batching check uses. *)

val request_break : t -> unit
(** Asks the innermost inline batch to stop after the current edge so the
    driving run loop re-checks its condition. Called when an interrupt
    line turns pending. A no-op outside a batch (the flag is cleared when
    a run loop begins). *)

val take_break : t -> bool
(** Consumes a pending break request: true if one was pending. *)

val jump_unchecked : t -> Simtime.t -> unit
(** Advances simulated time without dispatching events, for inline-batched
    clock edges. Unguarded: the caller must already have bounded the
    target by the current time, the horizon and the queue head {e this
    very edge} (the clock's inline loop does). Jumping past a queued
    event corrupts the timeline silently. *)

exception Stalled
(** Raised by {!run_while} when no event can make further progress. *)

val events_processed : t -> int
(** Total number of events executed so far (for engine benchmarks). *)

val reset : t -> unit
(** Discards all queued events and rewinds simulated time to zero, leaving
    the engine observationally identical to a fresh {!create}. Only safe
    when every component scheduled on the engine is reset alongside it —
    the platform pool's reuse path. *)
