(** The memory interface a coprocessor is written against.

    The paper's central portability claim is that the same coprocessor HDL
    runs unchanged behind the virtual interface (through the IMU) or — in
    the "typical coprocessor" baseline — against hardwired physical
    addresses. We capture that by writing every coprocessor against this
    one port type: {!Vport} implements it with the Figure 4 signal
    protocol, {!Dport} with raw single-cycle dual-port accesses. A
    coprocessor cannot tell which one it was given.

    Every operation is a two-arm match with a direct call in each arm,
    so it inlines into the coprocessor's per-edge code.

    Discipline (enforced by assertions):
    - call {!val-sample} first in every compute phase;
    - {!issue} only when [not (busy t)];
    - after {!ready}, read data the same cycle. *)

type t = Virtual of Vport.t | Direct of Dport.t

val sample : t -> unit
(** Latch the port inputs for this cycle. Must be the first port
    operation of a compute phase. *)

val start_seen : t -> bool
(** True on the cycle the start pulse arrives. *)

val issue :
  t -> region:int -> addr:int -> wr:bool -> width:Rvi_core.Cp_port.width ->
  data:int -> unit
(** Posts an access. [region] is the object identifier; region 255 reads
    the scalar parameters. The request leaves at the next commit. *)

val busy : t -> bool
(** An access is outstanding (issued and not yet completed). *)

val ready : t -> bool
(** The outstanding access completed this cycle; for reads {!data} is
    valid now. *)

val data : t -> int

val finish : t -> unit
(** Assert completion (held until the next start). *)

val commit : t -> unit
(** Drive the output signals; call from the component's commit phase. *)

val reset : t -> unit

val quiescent : t -> bool
(** Whether one [sample]/[commit] tick of the owning coprocessor would
    do nothing at the port beyond {!settle} (no latched start or response
    to consume, no request to move) — the port half of the
    {!Rvi_sim.Clock.component} idle contract. Exact: [true] promises the
    tick changes nothing else as long as no other component runs. *)

val settle : t -> unit
(** What [sample] does on a quiescent port: drop the start and
    completion levels consumed on an earlier tick. Every coprocessor's
    [skip] calls it, so a window may start on the tick right after a
    response was consumed. *)

val read_param : t -> index:int -> unit
(** Posts the read of parameter word [index] (32-bit, little-endian
    layout in the parameter page). *)
