(** Register-transfer-level IMU.

    The paper argues that "IMUs could and should, in principle, become
    standard components implemented on the ASIC platform in the same way
    MMUs are today". This module is that component one refinement step
    closer to silicon: the same machine as {!Imu}, but described
    structurally — explicit state encoding, per-entry tag/data/flag
    registers for the CAM, combinational match logic over {!Rvi_hw.Bits}
    vectors, every architectural register an {!Rvi_hw.Reg} committed at
    the clock edge.

    It implements the shipped 4-cycle design (2-cycle CAM search). The
    test suite drives it in lockstep with the behavioural {!Imu} on random
    access scripts, including faults and OS refills, and requires
    cycle-identical port behaviour — a small equivalence-checking flow, as
    one would run between an architectural model and an RTL
    implementation. *)

type t

val create :
  ?entries:int ->
  port:Cp_port.t ->
  dpram:Rvi_mem.Dpram.t ->
  raise_irq:(unit -> unit) ->
  unit ->
  t
(** [entries] defaults to 8 CAM entries. *)

val component : t -> Rvi_sim.Clock.component

(** {1 Register interface (bit-level, as the bus sees it)} *)

val read_ar : t -> int
val read_sr : t -> int
val write_cr : t -> int -> unit
val set_param_page : t -> int option -> unit

val tlb_write : t -> slot:int -> obj_id:int -> vpn:int -> ppn:int -> unit
(** CPU refill of one CAM entry (tag, data, valid set, flags cleared). *)

val tlb_invalidate : t -> slot:int -> unit
val tlb_invalidate_all : t -> unit

val tlb_dirty : t -> slot:int -> bool

val fault : t -> (int * int) option
(** [(object, virtual page)] while stalled on a miss. *)

val finished : t -> bool
