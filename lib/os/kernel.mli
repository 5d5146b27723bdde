(** The simulated operating-system kernel.

    Glues together the engine (time), the cost model (how long software
    takes), the ledger (where that time is attributed), the interrupt
    controller, the scheduler and the system-call table. Kernel modules —
    the VIM — register interrupt handlers and syscalls against it.

    Charging a cost runs the engine forward, so hardware clock domains keep
    ticking underneath kernel activity: while the OS services a page fault,
    the stalled IMU keeps sampling its inputs, exactly like on the board. *)

type t

val create :
  engine:Rvi_sim.Engine.t ->
  cost:Cost_model.t ->
  ?sdram_bytes:int ->
  unit ->
  t
(** [sdram_bytes] defaults to 64 MB, the paper's board memory. The SDRAM
    is all zero, fresh or the last {!release}d one of the same size. *)

val release : t -> unit
(** The kernel is done: its SDRAM may back the next kernel this domain
    creates. Use [t] no more. *)

val engine : t -> Rvi_sim.Engine.t
val cost : t -> Cost_model.t
val accounting : t -> Accounting.t
val irq : t -> Irq.t
val sched : t -> Sched.t
val sdram : t -> Rvi_mem.Sdram.t
val syscalls : t -> Syscall.t
val stats : t -> Rvi_sim.Stats.t

val now : t -> Rvi_sim.Simtime.t

val set_trace : t -> Rvi_obs.Trace.t option -> unit
(** Attaches (or detaches) a structured event trace. Kernel paths —
    interrupt arrival and service — then emit events into it, and kernel
    modules (the VIM) find it through {!trace} to add their own. *)

val trace : t -> Rvi_obs.Trace.t option

val reset : t -> unit
(** Platform pooling: scrubs accounting, IRQ pending state, scheduler
    bookkeeping, the SDRAM arena (zeroed) and the kernel counters, and
    detaches any trace. Syscall and IRQ handler registrations persist. *)

val charge : t -> Accounting.category -> cycles:int -> unit
(** Attributes [cycles] of CPU work to the category and consumes the
    corresponding simulated time (hardware events inside the span run). *)

val charge_time : t -> Accounting.category -> Rvi_sim.Simtime.t -> unit

val syscall : t -> number:int -> int array -> Syscall.result
(** Full syscall path: charges entry cost, dispatches, charges exit cost.
    Entry/exit overhead is attributed to [Sw_os]. *)

val service_interrupts : t -> int
(** Dispatches every pending interrupt, charging entry/exit costs to
    [Sw_imu] (the only interrupt source in this system is the IMU). Returns
    the number serviced. *)
