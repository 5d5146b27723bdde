(** The Interface Management Unit (paper §3.2, Figures 4 and 7).

    A clocked state machine between the coprocessor's virtual-address port
    and the dual-port RAM. Every coprocessor access runs through it:

    + the request is latched from the port ([CP_ACCESS]);
    + the TLB CAM is searched — due to the technology limitations the
      paper describes, the search takes multiple cycles
      ([config.lookup_states], 2 in the shipped design);
    + on a hit the physical dual-port-RAM access is performed and
      [CP_TLBHIT] is pulsed — data is ready on the {e fourth} rising edge
      after the request, reproducing Figure 7;
    + on a miss the coprocessor is stalled, [AR]/[SR] are set and the OS is
      interrupted; after the VIM refills the TLB and writes the resume bit,
      translation restarts.

    Accesses to the reserved parameter object are translated directly to
    the parameter-passing page without touching the TLB; the first
    non-parameter access marks the parameters consumed so the OS can
    recycle that page. *)

type config = {
  lookup_states : int;  (** CAM search cycles before the access cycle *)
  tlb_entries : int;
  tlb_organization : Tlb.organization;
      (** the paper's TLB is a full CAM; cheaper organisations trade
          conflict refill faults for area (ablation [abl-tlb-org]) *)
  translation : Translation_mode.t;
      (** object-keyed translation (the paper) or shared virtual
          addressing through the two-level hierarchy *)
  l2_entries : int;  (** shared L2 TLB size (SVA mode only) *)
  l2_hit_cycles : int;
      (** extra search cycles when an L1 miss hits the shared L2 *)
  walker : Walker.config;  (** page-table walker cost model (SVA mode) *)
}

val default_config : config
(** [lookup_states = 2] (the 4-cycle access of Figure 7), [tlb_entries = 8],
    [Paper_objects] translation; SVA parameters [l2_entries = 64],
    [l2_hit_cycles = 2], 12 walker cycles per level. *)

val pipelined_config : config
(** The paper's announced pipelined IMU: translation overlapped with the
    access, [lookup_states = 0] (2-cycle access). *)

val sva_asid : int
(** The tag every SVA-mode TLB entry carries (one address space per
    execution); exposed for tests poking the TLBs directly. *)

type t

val create :
  ?config:config ->
  ?l2:Tlb.t ->
  port:Cp_port.t ->
  dpram:Rvi_mem.Dpram.t ->
  raise_irq:(unit -> unit) ->
  unit ->
  t
(** [l2] shares a second-level TLB between coprocessors (multi-design
    SVA setups); by default an SVA-mode IMU builds a private one of
    [config.l2_entries] entries. Ignored in [Paper_objects] mode. *)

val component : t -> Rvi_sim.Clock.component
(** Register this on the IMU/memory-subsystem clock. *)

(** {2 Direct edge interface}

    The four functions {!component} wraps, exposed so a fused slot (the
    platform's divide-1 configuration collapses IMU, bus wrapper and
    coprocessor into one component) can call them without going through
    a per-layer closure on every edge. Same contract as the
    corresponding {!Rvi_sim.Clock.component} fields. *)

val compute : t -> unit
val commit : t -> unit
val idle_hint : t -> int
val skip : t -> int -> unit

val fold_window : t -> int
(** Upcoming edges that are the fixed bookkeeping of a TLB-hit access and
    may be applied by {!fold}: at a latch point that hits the L1 TLB (or
    reads the parameter page), the latch, the [lookup_states] CAM-wait
    edges and the access edge; in the wait, the rest of it. [0] whenever
    an edge could raise an interrupt or do anything else (a pulse to
    drop, a start to deliver, a CP_FIN edge, a latched hang, a miss, a
    failing access, an injector observer attached). Pure. *)

val fold : t -> int -> unit
(** [fold t k] applies [k] upcoming edges with frozen inputs, exactly as
    executing them would: within a {!fold_window}, the latch and the
    access edge run {!compute} and {!commit} and the countdown goes
    through {!skip}; within an {!idle_hint} window it is {!skip}. [k] must not exceed the window that {!fold_window} or
    {!idle_hint} reported for the current state. The caller owns the
    port's other side (the fused slot drops [CP_ACCESS] on the latch
    edge, as the synchroniser's commit would). *)

val config : t -> config
val tlb : t -> Tlb.t
val port : t -> Cp_port.t

(** {1 SVA translation (IOMMU mode)} *)

val l2 : t -> Tlb.t option
(** The shared second-level TLB, present iff the IMU was created in
    [Iommu_sva] mode. *)

val walker : t -> Walker.t option
(** The hardware page-table walker ([Iommu_sva] mode only); its stats
    carry the walk-count and walk-latency distribution. *)

val set_sva_window : t -> obj:int -> base:int -> unit
(** Programs the window register rebasing object [obj]'s accesses to the
    process virtual address [base] — the whole [FPGA_MAP_OBJECT] shim in
    SVA mode. *)

val sva_window : t -> obj:int -> int option

val clear_sva_windows : t -> unit
(** Unprograms every window register, so any object access faults with
    virtual page [-1] until its window is programmed again — the
    [FPGA_UNLOAD] side of the shim. *)

val set_page_table : t -> Rvi_os.Page_table.t option -> unit
(** Binds the executing process's page table to the walker (the IOMMU's
    context-table entry). The VIM sets it at [FPGA_EXECUTE]. *)

val page_table : t -> Rvi_os.Page_table.t option

(** {1 Register interface (driven by the VIM over the bus)} *)

val read_ar : t -> int
val read_sr : t -> int

val write_cr : t -> int -> unit
(** Start / resume / reset strobes; see {!Imu_regs}. Reset clears the FSM,
    the fault and fin flags and the parameter state, but not the TLB (the
    OS owns TLB contents). *)

val set_param_page : t -> int option -> unit
(** Physical page backing the parameter object, or [None] when parameter
    accesses must fail. *)

val fault : t -> (int * int) option
(** [(obj_id, vpn)] of the pending fault, if stalled. *)

val params_done : t -> bool
val finished : t -> bool
(** The coprocessor has asserted [CP_FIN]. *)

val cycle : t -> int
(** IMU clock cycles elapsed (the hardware stamp used by the TLB). *)

val reset : t -> unit
(** Full power-on reset for platform pooling: everything a
    [CR reset] scrubs, plus the cycle counter, TLB image, parameter page
    and stats (zeroed in place, handles kept) and the injector binding.
    Call after the CP port has been reset so the FIN edge latch starts
    from the quiescent level. *)

(** {1 Context save/restore (tenant preemption)} *)

type context
(** Everything the hardware holds in flip-flops for the executing
    tenant: FSM state, the latched request, per-run flags, both TLB
    images, the SVA window registers and page-table binding, and the
    CP-port signal levels. Platform bindings (injector, trace probe,
    stats) are excluded. *)

val save_context : t -> context
(** Snapshot with the station clock stopped (both FSM register views in
    agreement); the IMU is unchanged. *)

val restore_context : t -> context -> unit
(** Reinstates the snapshot exactly — including the shared CP-port
    levels — so a preempted tenant resumes as if never interrupted. *)

(** {1 Access tracing} *)

type access_event = {
  at_cycle : int;
  obj_id : int;
  vpn : int;
  offset : int;
  wr : bool;
  tlb_hit : bool;  (** state of the TLB when the access was latched *)
}

val set_trace : t -> (access_event -> unit) option -> unit
(** Installs (or removes) a probe called once per latched data access —
    parameter-page reads excluded. Used by the miss-ratio-curve analysis
    ({!Rvi_harness.Mrc}) and by debugging tools; no simulation behaviour
    depends on it. *)

val stats : t -> Rvi_sim.Stats.t
(** ["accesses"], ["reads"], ["writes"], ["param_reads"], ["faults"],
    ["stall_cycles"], ["busy_cycles"], ["hangs"], ["hang_cycles"],
    ["wrong_results"]; under SVA injection additionally ["ptw_errors"],
    ["l2_corruptions"] and ["walker_hangs"]. *)

(** {1 Fault injection} *)

val set_injector : t -> Rvi_inject.Injector.t option -> unit
(** With an injector attached, each latched access is a
    {!Rvi_inject.Fault.Coproc_hang} opportunity (the IMU wedges: no
    completion, no fault, no fin — only {!write_cr} reset clears it) and
    each coprocessor store is a {!Rvi_inject.Fault.Coproc_wrong}
    opportunity (the stored value is silently corrupted). *)

val hung : t -> bool
(** Whether an injected hang is currently wedging the IMU. *)
