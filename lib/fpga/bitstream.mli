(** Coprocessor configuration bit-streams.

    [FPGA_LOAD] takes "a pointer to the configuration bit-stream". In the
    model a bit-stream is a descriptor of the synthesised design: which
    coprocessor it implements, how much logic it needs, and the clocking of
    its two halves (the platform-specific IMU / memory side and the portable
    coprocessor side, which may run on a divided clock — the paper's IDEA
    core runs at 6 MHz against a 24 MHz memory subsystem). *)

type t = private {
  name : string;  (** design identifier, e.g. ["idea_vim"] *)
  logic_elements : int;  (** LEs consumed when configured *)
  imu_freq_hz : int;  (** IMU and memory-subsystem clock *)
  coproc_divide : int;  (** coprocessor clock = [imu_freq_hz / coproc_divide] *)
  param_words : int;  (** scalar parameters read from the parameter page *)
}

val make :
  name:string ->
  logic_elements:int ->
  imu_freq_hz:int ->
  ?coproc_divide:int ->
  param_words:int ->
  unit ->
  t
(** [coproc_divide] defaults to 1 (coprocessor clocked with the IMU).
    Raises [Invalid_argument] on non-positive parameters. *)

val coproc_freq_hz : t -> int

val equal : t -> t -> bool
(** Structural equality, field by field (no polymorphic compare). *)

val pp : Format.formatter -> t -> unit
