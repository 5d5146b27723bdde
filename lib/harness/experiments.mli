(** Reproduction of every figure in the paper's evaluation, plus the
    ablations DESIGN.md commits to.

    Each experiment returns its data and prints a human-readable rendering
    to the given formatter. One table in [bin/rvisim.ml] turns them into
    the [rvisim] subcommands and orders them for [rvisim all].

    Every [?jobs] (default 1) shards the experiment's independent runs
    over that many domains via {!Rvi_par.Par.map}, one variant per chunk.
    Each run builds a private simulation stack, so the data is identical
    whatever [jobs] is and rendering happens only after the barrier.
    The experiments without [?jobs] run serially. *)

(** {1 Figure 7 — coprocessor read access timing} *)

type fig7 = {
  waveform : string;  (** ASCII timing diagram of a translated read *)
  vcd : string;  (** same capture as a VCD dump *)
  latency_cycles : int;  (** edges from CP_ACCESS to data valid *)
}

val fig7 : Format.formatter -> Config.t -> fig7
(** One vector add through the IMU of [cfg]'s kind (4-cycle or
    pipelined), captured from the first translated data read. *)

(** {1 Figures 8 and 9 — application measurements} *)

val fig8 :
  ?sizes_kb:int list -> ?jobs:int -> Format.formatter -> Config.t -> Report.row list
(** adpcmdecode: software and VIM-based versions per input size
    (default 2/4/8 KB). *)

val fig9 :
  ?sizes_kb:int list -> ?jobs:int -> Format.formatter -> Config.t -> Report.row list
(** IDEA: software, normal-coprocessor and VIM-based versions per input
    size (default 4/8/16/32 KB). *)

(** {1 §4.1 overhead claims} *)

type overheads = {
  adpcm_imu_share_max : float;
      (** largest SW(IMU) share of total across the adpcm runs (paper: up
          to 2.5 %) *)
  idea_translation_share : float;
      (** (VIM hardware - normal hardware) / VIM hardware at equal size
          (paper: about 20 %) *)
  dp_share_of_overhead : float;
      (** SW(DP) share of all software overhead in the VIM runs (paper:
          "the largest fraction") *)
}

val overheads : Format.formatter -> Config.t -> overheads

(** {1 Ablations} *)

val ablation_policy :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** FIFO / LRU / random / second-chance on the faulting workloads. *)

val ablation_prefetch :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list

val ablation_pipelined_imu :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** 4-cycle vs pipelined IMU on IDEA (the paper's announced follow-up). *)

val ablation_transfer :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** Double (measured) vs single (announced fix) transfers. *)

val ablation_tlb_size :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** 2, 4 and 8 TLB entries on IDEA ([idea-32KB/tlb-N]). *)

val portability :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** The same binaries across EPXA1/EPXA4/EPXA10 — only the module
    (configuration) changes, as §4 promises. *)

val ablation_chunked_normal :
  Format.formatter -> Config.t -> (string * Report.row) list
(** The hand-chunked normal driver (Figure 3's while loop) against VIM on
    a working set beyond the dual-port memory. *)

val ablation_tlb_org :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** CAM vs 2-way vs direct-mapped TLB: conflict refill faults against the
    area a real CAM costs. *)

val ablation_dma :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** CPU copies (the paper) vs the stripe's DMA engine for page movement. *)

val ablation_overlap :
  ?jobs:int -> Format.formatter -> Config.t -> (string * Report.row) list
(** Prefetch off / synchronous / overlapped with coprocessor execution —
    the §4.1 future work quantified. *)

(** One measured (workload, translation mode) cell of the translation
    ablation, with the hardware counters the report row does not carry:
    per-level TLB hit/miss counts and the page-table walker's latency
    percentiles (cycles, from the walker's histogram; zeros in paper
    mode, which has no walker). *)
type translation_point = {
  label : string;  (** ["workload/mode"] *)
  mode : Rvi_core.Translation_mode.t;
  row : Report.row;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  walks : int;
  walk_p50 : float;
  walk_p95 : float;
}

val ablation_translation :
  ?jobs:int ->
  ?smoke:bool ->
  Format.formatter ->
  Config.t ->
  translation_point list
(** The paper's per-object translation against the IOMMU/SVA mode (L1+L2
    TLB hierarchy, cycle-costed walker) on all four workloads — fault
    rates, TLB hit ratios per level, walk latency and end-to-end time per
    mode. [smoke] restricts to adpcm only (one run per mode), the cheap
    configuration the [make check] smoke target uses. *)

(** {1 Extensions beyond the paper} *)

val ext_fir :
  ?sizes_kb:int list -> ?jobs:int -> Format.formatter -> Config.t -> Report.row list
(** The FIR filter as a third application, in all three versions. *)

type miss_curve = {
  refs : int;  (** length of the page reference string *)
  frames_available : int;
  lru : int array;  (** misses for 1..16 frames under LRU *)
  fifo_at_available : int;
  measured_faults : int;  (** what the real run with the paper's VIM took *)
}

val miss_curve : Format.formatter -> Config.t -> miss_curve
(** Records the adpcm-8KB access trace through the IMU probe and computes
    the workload's miss-ratio curve (Mattson stack analysis), relating the
    measured fault count to the curve. *)

val ext_cbc : Format.formatter -> Config.t -> Report.row list
(** IDEA under ECB/CBC in both directions: CBC encryption's data
    recurrence serialises the 3-stage pipeline while CBC decryption keeps
    it full — the classic mode/pipelining interaction, measured on this
    core. *)

val sweep_page_size :
  Format.formatter -> Config.t -> (int * Report.row) list
(** Page-granularity sweep at fixed memory: copy volume vs fault-service
    overhead. *)

val sweep_memory_size :
  Format.formatter -> Config.t -> (int * Report.row) list
(** Dual-port memory size sweep at fixed page size: the knee where the
    working set starts to fit. *)

val ext_dual : Format.formatter -> Config.t -> float * float * bool
(** Two coprocessors (adpcmdecode + FIR) behind one IMU through the
    arbiter, sharing the paged memory and one unchanged VIM:
    [(serial_ms, concurrent_ms, both_verified)]. *)

val ext_oracle :
  Format.formatter -> Config.t -> (string * (int * bool)) list * int
(** Profile-guided Belady replacement on vecadd-512 under pure demand
    paging: per-policy (faults, verified) plus the analytic OPT bound. *)

val sensitivity :
  ?jobs:int ->
  Format.formatter ->
  Config.t ->
  (int * (Report.row * Report.row) * (Report.row * Report.row * Report.row))
  list
(** Robustness of the conclusions to the least-certain calibration
    constant (AHB cycles per uncached word), swept across a 4x range. *)
