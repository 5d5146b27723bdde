(** One assembled reconfigurable platform.

    Builds the whole machine from a {!Config.t} and a bit-stream: engine,
    kernel, dual-port RAM, PLD, IMU (on its clock), VIM, the syscall API
    and a coprocessor instantiated behind the virtual interface. This is
    what the examples and the runner share; tests use it to poke the
    internals. *)

(** {1 Stations} *)

type station = {
  st_port : Rvi_core.Cp_port.t;
  st_imu : Rvi_core.Imu.t;
  st_clock : Rvi_sim.Clock.t;
  st_vim : Rvi_core.Vim.t;
  st_vport : Rvi_coproc.Vport.t;
  st_coproc : Rvi_coproc.Coproc.t;
}
(** The hardware one bit-stream instantiates plus the VIM bound to it. *)

val station :
  Config.t ->
  kernel:Rvi_os.Kernel.t ->
  dpram:Rvi_mem.Dpram.t ->
  irq_line:int ->
  clock_name:string ->
  bitstream:Rvi_fpga.Bitstream.t ->
  make:(Rvi_core.Cp_port.t -> Rvi_coproc.Vport.t * Rvi_coproc.Coproc.t) ->
  station
(** Wires one station on a shared kernel and dual-port RAM: a CP port, an
    IMU raising [irq_line], the bit-stream's clock domain (named
    [clock_name]), a VIM on that line, the coprocessor [make] builds
    behind the virtual interface, the VIM abort hook that resets the
    coprocessor side, and the clock slots — one fused slot when the
    coprocessor runs at the IMU rate, otherwise IMU, port synchroniser
    and the coprocessor on the bit-stream's divided clock. The
    configuration's injector, if any, is attached to the IMU. {!create}
    builds one station on line 0; the service builds one per application
    kind. *)

(** {1 Platforms} *)

type t = {
  engine : Rvi_sim.Engine.t;
  kernel : Rvi_os.Kernel.t;
  dpram : Rvi_mem.Dpram.t;
  pld : Rvi_fpga.Pld.t;
  port : Rvi_core.Cp_port.t;
  imu : Rvi_core.Imu.t;
  clock : Rvi_sim.Clock.t;
  vim : Rvi_core.Vim.t;
  api : Rvi_core.Api.t;
  vport : Rvi_coproc.Vport.t;
  coproc : Rvi_coproc.Coproc.t;
  proc : Rvi_os.Proc.t;  (** the application process, already scheduled *)
}

val create :
  ?app_name:string ->
  ?sdram_bytes:int ->
  Config.t ->
  bitstream:Rvi_fpga.Bitstream.t ->
  make:(Rvi_core.Cp_port.t -> Rvi_coproc.Vport.t * Rvi_coproc.Coproc.t) ->
  t
(** One {!station} on interrupt line 0 with a clock named ["pld"], plus
    the PLD, the syscall API and the application process. *)

val reset : t -> Config.t -> unit
(** Re-arms a platform in place for another run: rewinds the simulation
    timeline to zero, zeroes SDRAM and dual-port RAM, scrubs the IMU/TLB,
    VIM, PLD, port, virtual port and coprocessor back to power-on state,
    and re-attaches the per-run bindings (trace sink, fault injector, VIM
    configuration) from [cfg] exactly as {!create} does. A run on a reset
    platform is byte-identical — report and trace — to the same run on a
    fresh platform (qcheck'd in the test suite). The configuration must
    use the same device geometry and IMU/TLB parameters the platform was
    created with; otherwise [Invalid_argument] is raised. *)

(** A keyed pool of reusable platforms, the campaign hot path: reusing a
    platform skips construction and, above all, the multi-megabyte zeroed
    SDRAM allocation per run. Not domain-safe — parallel shards keep one
    pool each in domain-local storage. *)
module Pool : sig
  type platform = t
  type t

  val create : unit -> t
  val size : t -> int

  val acquire :
    t -> key:string -> Config.t -> create:(unit -> platform) -> platform
  (** Takes the platform stored under [key] out of the pool (resetting it
      against the given configuration), or builds a fresh one with
      [create]. The caller owns the result; {!stash} it back when the run
      succeeds. If the run raises, simply don't — a possibly-wedged
      platform must not be reused. *)

  val stash : t -> key:string -> platform -> unit

  val find : t -> key:string -> platform option
  (** Peeks at the stashed platform without acquiring (no reset): lets the
      ablation harness read end-of-run hardware statistics — TLB hit
      counters, walker latency histograms — after the runner has stashed
      the platform back. *)

  val clear : t -> unit
end

val alloc : t -> int -> Rvi_os.Uspace.buf
val alloc_bytes : t -> Bytes.t -> Rvi_os.Uspace.buf
val read : t -> Rvi_os.Uspace.buf -> Bytes.t

val trace : t -> Rvi_hw.Wave.t
(** Attaches (once) a waveform tracer probing the whole CP port on the
    platform clock and returns it. *)
