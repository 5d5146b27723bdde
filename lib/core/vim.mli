(** The Virtual Interface Manager (paper §3.3) — the OS half of the
    virtualisation layer, a kernel module in the original system.

    It owns the dual-port RAM as a pool of page frames, keeps the mapping
    between (object, virtual page) pairs and frames, and responds to the
    two IMU interrupt causes:

    - {b page fault} — the coprocessor touched a page not in the dual-port
      memory: pick a frame (evicting by the configured policy if none is
      free, writing dirty contents back to user space), load the missing
      data, refill the TLB and resume translation;
    - {b end of operation} — flush every dirty resident page back to user
      space and wake the sleeping caller.

    All software work is charged to the kernel's ledger: decode and TLB
    manipulation to [Sw_imu], data movement to [Sw_dp] (doubled in
    [Double] transfer mode — the naive bounce-buffer implementation the
    paper measures and promises to remove), the rest to [Sw_os]. *)

type transfer_mode =
  | Single  (** one copy per page movement *)
  | Double
      (** the paper's "simple implementation of the VIM which makes two
          transfers each time a page is loaded or unloaded" *)

type copy_engine =
  | Cpu  (** uncached processor loads/stores over the AHB (the paper) *)
  | Dma_engine of Rvi_mem.Dma.t
      (** the stripe's DMA controller: cheap per word, CPU only pays the
          channel setup. Implies single transfers. *)

type recovery = {
  max_retries : int;
      (** bounded retries for a failed page transfer before the execution
          aborts with {!Bus_error} / {!Dma_failed} *)
  backoff : Rvi_sim.Simtime.t;
      (** base retry backoff, doubled on each attempt *)
  poll : Rvi_sim.Simtime.t;
      (** SR poll interval while waiting for the coprocessor, used to catch
          causes whose interrupt edge was lost; polling only happens when an
          injector is attached, and [zero] disables it outright *)
}

val default_recovery : recovery
(** 3 retries, 10 µs base backoff, 200 µs poll. *)

(** {1 The recovery state machine, reified}

    Every recovery decision — the VIM's page-transfer retries, the SVA
    walk-retry bounding, the lost-interrupt polling, the watchdog abort
    and the runner's whole-execution retry/fallback ladder — is one row of
    this table. The implementations dispatch through {!decide}, so the
    property tests that enumerate it cover the machine that actually
    runs. *)

type fault_class =
  | Copy_error  (** AHB error / DMA abort on a page transfer *)
  | Walk_error  (** SVA: a page-table walk aborted on a bus error *)
  | Hang  (** no progress: the coprocessor or the walker wedged *)
  | Lost_irq  (** a cause latched in SR with no interrupt edge *)
  | Bad_output  (** clean exit, wrong result (caught by verification) *)

val fault_class_name : fault_class -> string
val all_fault_classes : fault_class list

type action =
  | Retry of { backoff : Rvi_sim.Simtime.t }
      (** re-issue the failed operation after [backoff] *)
  | Poll  (** read SR at the poll interval until the cause surfaces *)
  | Abort  (** abort_cleanup; the error propagates to the caller *)
  | Degrade  (** hand the computation to the software fallback *)

val action_name : action -> string

val decide : recovery -> cls:fault_class -> attempt:int -> action
(** The transition table: the action after the [attempt]-th (1-based)
    failure of one operation of class [cls] under policy [recovery].
    Total, and terminal past the retry budget: [Retry] is only answered
    while [attempt <= max_retries], so no fault class can keep the
    interface wedged. Raises [Invalid_argument] when [attempt < 1]. *)

type config = {
  policy : Policy.t;
  transfer : transfer_mode;
  prefetch : Prefetch.t;
  overlap_prefetch : bool;
      (** resume the coprocessor before performing speculative loads, so
          the transfers overlap hardware execution — the paper's §4.1
          future work ("allowing overlapping of processor and coprocessor
          execution") *)
  copy_engine : copy_engine;
  eager_mapping : bool;
      (** pre-map object pages at [FPGA_EXECUTE] ("performs the mapping",
          §3.1); disable for pure demand paging *)
  watchdog : Rvi_sim.Simtime.t;
      (** abort limit on the gap between two progress points (interrupt
          services) of one coprocessor execution *)
  injector : Rvi_inject.Injector.t option;
      (** fault injector consulted at the VIM's own boundaries (page
          copies, TLB refills, the wait loop); [None] disables injection
          and the recovery polling with it *)
  recovery : recovery;
}

val default_config : unit -> config
(** The paper's measured system: FIFO, [Double] transfers by [Cpu],
    prefetch off (hence no overlap), 10 s watchdog. *)

type error =
  | Unmapped_object of int
  | Object_overflow of { obj_id : int; vpn : int }
  | No_frames
  | Too_many_params of { given : int; capacity : int }
      (** more scalar parameters than the parameter page holds *)
  | Hardware_stall
  | Nothing_loaded
  | Bus_error  (** page-copy retries exhausted against AHB error responses *)
  | Dma_failed  (** page-copy retries exhausted against DMA failures *)
  | Parity_error of { frame : int }
      (** a latent dual-port-RAM bit flip caught by the flush-time parity
          sweep; the frame's data is untrustworthy *)
  | Sva_fault of { vpn : int }
      (** SVA mode: the walker faulted on a virtual page outside the
          process address space (or before any window was programmed) *)
  | Walk_failed of { vpn : int }
      (** SVA mode: the hardware page-table walk of a present PTE kept
          aborting (injected PTW bus errors) through the walk-retry
          budget *)

val error_to_string : error -> string

type severity =
  | Transient  (** environmental: a clean re-execution may succeed *)
  | Fatal  (** caller or configuration bug: retrying reproduces it *)

val classify : error -> severity

type t

val create :
  ?irq_line:int ->
  kernel:Rvi_os.Kernel.t ->
  dpram:Rvi_mem.Dpram.t ->
  imu:Imu.t ->
  ahb:Rvi_mem.Ahb.t ->
  clocks:Rvi_sim.Clock.t list ->
  config ->
  t
(** [clocks] are the hardware clock domains to run during execution. The
    IMU interrupt handler is installed on the kernel's [irq_line]
    (default 0); multiprogramming setups give each configured design its
    own line. *)

val config : t -> config
val kernel : t -> Rvi_os.Kernel.t

val reset : t -> config -> unit
(** Re-arms the VIM for the next execution on a pooled platform: installs
    the given configuration (a freshly built one — new policy state,
    injector, recovery parameters) and scrubs all interface state (object
    map, frame table, write-back and dirtiness tables, error/finished
    latches, stats). The IRQ handler registration and abort hook are
    kept. *)

val map_object : t -> Mapped_object.t -> (unit, string) result
(** Declares an object ([FPGA_MAP_OBJECT] backend). Fails on a duplicate
    identifier. *)

val translation : t -> Translation_mode.t
(** The IMU's translation mode (from its configuration). *)

val sva_note_object : t -> id:int -> base:int -> (unit, string) result
(** SVA-mode [FPGA_MAP_OBJECT] shim: no pages are described to the VIM —
    translation is by process virtual address — but the object's base VA
    is programmed into the IMU's per-object window register so existing
    bitstreams addressing [CP_OBJ]+[CP_ADDR] keep working unmodified. *)

val unmap_all : t -> unit
val objects : t -> Mapped_object.t list
val find_object : t -> id:int -> Mapped_object.t option

(** {1 Execution}

    One [FPGA_EXECUTE] machine, cut into preemptible quanta: {!exec_start}
    runs the prologue, {!exec_pump} advances it, {!exec_preempt} and
    {!exec_resume} park and reinstate it. A session never sleeps or
    wakes a process — admission control lives in the service
    ({!Rvi_svc}) — which is what isolates tenants from each other's
    scheduler activity. {!execute} is the run-to-completion wrapper the
    system call uses. *)

type session
(** One in-flight [FPGA_EXECUTE]: carries the watchdog deadline (re-armed
    on serviced progress, resumed with its remaining budget after a
    preemption) and the start timestamp
    for the trace span. *)

type context
(** A parked tenant's complete interface state: the IMU flip-flop
    context (FSM, latched request, TLB images, SVA windows, CP-port
    levels), the frame-table occupancy, the full dual-port-RAM image and
    the VIM's own bookkeeping (write-back and dirty sets, object map,
    page-table binding, walk-retry streak). *)

val exec_start :
  ?page_table:Rvi_os.Page_table.t -> t -> params:int list ->
  (session, error) result
(** The prologue: scrub, seed the parameter page, bind the
    translation (SVA mode uses [page_table] when given, the current
    process's otherwise), start the clocks and the coprocessor. The
    caller keeps running — nothing sleeps. *)

val exec_pump :
  t -> session -> until:Rvi_sim.Simtime.t ->
  [ `Done of (unit, error) result | `Running ]
(** Advances simulated time to at most [until], servicing interrupts
    (watchdog re-armed on this interface's serviced causes, lost-IRQ
    polling and spurious-edge opportunities under injection). [`Running] is only returned
    quiesced — pending causes latched at quantum expiry are serviced
    first — so the scheduler may {!exec_preempt} immediately. [`Done]
    stops the clocks, runs the abort path on error and closes the trace
    span. *)

val exec_preempt : t -> session -> context
(** Stops the station clocks and snapshots the whole interface context.
    Charged as one full dual-port-RAM copy plus page bookkeeping. Only
    legal after [`Running]. The dual-port image goes into the buffer the
    last {!exec_resume} handed back, so steady-state preemption allocates
    no page buffers. *)

val exec_resume : t -> context -> session
(** Reinstates a parked context (frames, pages, IMU, bookkeeping),
    restarts the clocks and returns a fresh session whose watchdog
    resumes with the budget it had left at preemption — time spent
    parked does not count against the tenant's progress budget, but
    parking does not refresh it, so a hung tenant preempted every
    quantum still trips its watchdog.

    A context is single-use: resuming hands its dual-port image to the
    VIM for the next {!exec_preempt}, and a second resume of the same
    context raises [Invalid_argument] (as does a context parked on a VIM
    with a different dual-port geometry), before any state changes. *)

val execute : t -> params:int list -> (unit, error) result
(** [FPGA_EXECUTE] backend, the run-to-completion wrapper of the sliced
    API: {!exec_start}, then the calling process (unless it is the idle
    process) sleeps while {!exec_pump} runs with no horizon until
    [`Done] — faults serviced, dirty pages flushed at [fin], whose
    handler wakes the caller (and charges the wakeup). An error path
    that bypassed [fin] wakes the caller itself. *)

val stats : t -> Rvi_sim.Stats.t
(** ["faults"], ["tlb_refill_faults"], ["evictions"], ["writebacks"],
    ["pages_loaded"], ["pages_cleared"], ["prefetched"],
    ["param_releases"], ["executions"], ["preemptions"], ["resumes"];
    with injection also
    ["copy_errors"], ["copy_retries"], ["copies_recovered"],
    ["copy_retries_exhausted"], ["tlb_corruptions"], ["parity_errors"],
    ["lost_irq_recovered"], ["watchdog_fires"], ["aborts"],
    ["spurious_irqs"]; in SVA mode also ["walk_retries"] and
    ["walk_retries_exhausted"] (PTW bus-error recovery). *)

val frame_table : t -> Frame_table.t
(** Exposed for tests and for the ablation harness. *)

val set_abort_hook : t -> (unit -> unit) -> unit
(** Called by the abort path after the IMU reset, to reset the
    coprocessor side of the interface (port signals, synchroniser,
    coprocessor FSM) — the platform wires this, since a hung coprocessor
    left mid-access would wedge the next FPGA_EXECUTE. *)

val consistency : t -> (unit, string) result
(** Cross-checks the software frame table against the hardware TLBs (both
    levels in SVA mode): no page resident in two frames, no valid TLB
    entry pointing at a frame the table does not hold for that page, no
    dirty frame without an owner able to flush it — a mapped object in
    paper mode, a matching PTE in SVA mode. [Error] describes every
    violation found. *)
