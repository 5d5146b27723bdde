(** The {!Mem_port} operations over the virtual interface (Figure 4
    signals).

    Pulses [CP_ACCESS] for one cycle per request and waits for the IMU's
    [CP_TLBHIT]; stalls transparently across page faults — the coprocessor
    logic never knows a fault happened, which is exactly the paper's
    abstraction. Asserting {!finish} holds [CP_FIN] until the next
    [CP_START].

    The IMU answers with single-cycle pulses in its own clock domain. A
    coprocessor on a divided clock (the paper's 6 MHz IDEA core against
    the 24 MHz memory subsystem) would miss them, so the port contains a
    synchroniser register stage in the {e IMU clock} domain, after the
    IMU and before the coprocessor ({!fused_component} places it there) —
    this is the "stall mechanism" synchronisation of §4.1. *)

type t

val sample : t -> unit
val start_seen : t -> bool

val issue :
  t -> region:int -> addr:int -> wr:bool -> width:Rvi_core.Cp_port.width ->
  data:int -> unit

val busy : t -> bool
val ready : t -> bool
val data : t -> int
val finish : t -> unit
val reset : t -> unit
val quiescent : t -> bool
val settle : t -> unit

val create : ?region_offset:int -> Rvi_core.Cp_port.t -> t
(** [region_offset] (default 0) is added to every data-object id issued
    (not to parameter reads): cores sharing one IMU keep their designs. *)

val sync_component : t -> Rvi_sim.Clock.component
(** Latches the IMU's response pulses into sticky flags the coprocessor
    consumes at its own rate. Runs on the IMU clock between the IMU and
    the coprocessor. *)

val fused_component :
  t -> imu:Rvi_core.Imu.t -> clock:Rvi_sim.Clock.t -> divide:int ->
  Rvi_sim.Clock.component -> Rvi_sim.Clock.component
(** [fused_component t ~imu ~clock ~divide coproc] is one component for
    [clock] behaving exactly like [Imu.component], {!sync_component} and
    [Clock.divided ~clock ~divide coproc] as three slots of the
    reference stepper, in that order: one dispatch per edge instead of
    three, with the IMU called directly. Raises [Invalid_argument] if
    [divide < 1]. *)

val accesses : t -> int
(** Requests issued since creation. *)
