(** The [adpcmdecode] coprocessor (paper §4.1, Figure 8).

    Runs at 40 MHz together with the IMU on the paper's board. Objects:
    0 = compressed input (bytes), 1 = decoded output (16-bit samples).
    One scalar parameter: the input size in bytes. The decode data path is
    a sequential multi-cycle unit — {!decode_cycles} cycles per sample —
    matching the modest FSM the paper synthesised rather than a fully
    pipelined design. *)

val obj_in : int
val obj_out : int

val decode_cycles : int
(** Data-path latency per decoded sample (calibrated; see
    {!Rvi_harness.Calibration}). *)

val sw_cycles_per_sample : int
(** Calibrated ARM cycles per sample of the pure-software decoder. *)

val create : Mem_port.t -> Coproc.t
