(** System configuration for a reproduction run.

    Bundles everything that varies across the paper's experiments and our
    ablations: the device (hence dual-port RAM geometry), the replacement
    policy, the transfer mode, prefetching, the IMU variant and the TLB
    size. Policies carry state, so the configuration names the policy and
    every VIM built from it gets a fresh instance, seeded from [seed]. *)

type imu_kind = Four_cycle | Pipelined

val imu_kinds : (string * imu_kind) list
val transfers : (string * Rvi_core.Vim.transfer_mode) list
(** Each IMU variant and transfer mode with its name: the ablations'
    labels and the scenario line's spellings. *)

type t = {
  device : Rvi_fpga.Device.t;
  policy : string;  (** {!Rvi_core.Policy.of_name}, seeded from [seed] *)
  transfer : Rvi_core.Vim.transfer_mode;
  prefetch : Rvi_core.Prefetch.t;
  overlap_prefetch : bool;
      (** overlap speculative transfers with coprocessor execution *)
  copy_engine : Rvi_core.Vim.copy_engine;
  eager_mapping : bool;  (** pre-map pages at FPGA_EXECUTE (the default) *)
  imu_kind : imu_kind;
  tlb_entries : int option;  (** [None]: one entry per dual-port page *)
  tlb_organization : Rvi_core.Tlb.organization;
  translation : Rvi_core.Translation_mode.t;
      (** address-translation scheme: the paper's per-object page lists, or
          the shared-virtual-addressing IOMMU mode (L1+L2 TLB hierarchy
          with a cycle-costed page-table walker) *)
  seed : int;
  trace : Rvi_obs.Trace.t option;
      (** structured event trace attached to every platform built from this
          configuration; events accumulate across runs (see {!Rvi_obs}) *)
  injector : Rvi_inject.Injector.t option;
      (** fault injector wired into every hardware boundary of platforms
          built from this configuration (dual-port RAM, interrupt
          controller, IMU, VIM); [None] = no injection, byte-identical
          behaviour to the pre-injection system *)
  recovery : Rvi_core.Vim.recovery;  (** VIM recovery policy *)
  watchdog : Rvi_sim.Simtime.t;
      (** VIM watchdog on the gap between progress points *)
  exec_retries : int;
      (** whole-execution retries on a transient error or a bad output
          before degrading to the software fallback; only consulted when an
          injector is attached *)
}

val default : unit -> t
(** The paper's measured system: EPXA1, FIFO replacement, double CPU
    transfers, no prefetch, 4-cycle IMU, TLB entry per page, seed 42. *)

val imu_config : t -> Rvi_core.Imu.config
(** The IMU of the simulated platform: the variant's search latency, one
    TLB entry per dual-port page unless [tlb_entries] says otherwise,
    [tlb_organization] and [translation]. *)

val vim_config : t -> Rvi_core.Vim.config
(** A fresh VIM configuration; its policy is built from ([policy], [seed])
    ([Invalid_argument] on an unknown policy name). *)
