(** Result rows and table/figure rendering.

    Each run produces one row with the paper's time decomposition (HW,
    SW(DP), SW(IMU), plus application software and residual OS time) and
    the interface-level event counts. Renderers produce the aligned tables
    and the stacked ASCII bar charts used to regenerate Figures 8 and 9. *)

type outcome =
  | Measured
  | Exceeds_memory  (** the normal coprocessor cannot run this size *)
  | Degraded of string
      (** hardware retries exhausted; the software fallback produced the
          result (the reason describes what gave up) *)
  | Failed of string

type row = {
  app : string;
  version : string;  (** ["SW"], ["VIM"], ["NORMAL"] *)
  input_bytes : int;
  outcome : outcome;
  total : Rvi_sim.Simtime.t;
  hw : Rvi_sim.Simtime.t;
  sw_dp : Rvi_sim.Simtime.t;
  sw_imu : Rvi_sim.Simtime.t;
  sw_app : Rvi_sim.Simtime.t;
  sw_os : Rvi_sim.Simtime.t;
  faults : int;
  evictions : int;
  writebacks : int;
  tlb_refill_faults : int;
  prefetched : int;
  accesses : int;
  fault_p95_us : float;  (** 95th-percentile fault-service time, µs *)
  fault_p99_us : float;  (** 99th-percentile fault-service time, µs *)
  retries : int;  (** whole-execution retries the recovery layer spent *)
  verified : bool;  (** output bit-exact against the software reference *)
}

val empty : app:string -> version:string -> input_bytes:int -> row
(** A [Measured], unverified row with every time and count at zero. *)

val ok : row -> bool
(** Measured and verified. *)

val speedup : baseline:row -> row -> float option
(** [total baseline / total row]; [None] unless both rows measured. *)

val size_label : int -> string
(** ["2KB"], ["512B"], and fractional KB for non-aligned sizes:
    [size_label 1536 = "1.5KB"]. *)

val print_table : ?title:string -> Format.formatter -> row list -> unit
(** Aligned table: size, outcome, total and component times, counts,
    verification mark. *)

val bar_chart :
  ?width:int ->
  title:string ->
  baseline_version:string ->
  Format.formatter ->
  row list ->
  unit
(** Stacked horizontal bars per (size, version): hardware and software
    components drawn with distinct fills, speedups against the named
    baseline version at equal size annotated on the right — the shape of
    the paper's Figures 8 and 9. *)

val csv : row list -> string
(** Machine-readable dump (header + one line per row, times in ms). *)

val json : row list -> string
(** The same rows as a JSON array (no external dependency; times in ms). *)
