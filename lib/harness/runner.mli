(** Measurement runs of the paper path.

    {!run} executes one request of any application in the {!Jobs}
    registry on a freshly built (or pooled) simulated platform: through
    the full stack (syscalls, VIM, IMU, coprocessor), on the normal
    coprocessor, or in software. It verifies the output against the
    software reference bit-for-bit and returns a {!Report.row} labelled
    with {!Jobs.label}. *)

type impl =
  | Sw  (** the software reference on the CPU, charged at its cycle model *)
  | Vim  (** the virtualised coprocessor: FPGA_LOAD, FPGA_MAP_OBJECT,
            FPGA_EXECUTE *)
  | Normal
      (** the coprocessor on raw dual-port memory, placed by hand (no OS
          support); [Exceeds_memory] when the working set does not fit *)

val run :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  ?recipe:Jobs.recipe ->
  Config.t ->
  impl ->
  Jobs.input ->
  Report.row
(** [run cfg impl input] runs one request.

    For [Vim], when the configuration carries an injector, a transient
    hardware error (or a clean exit with a bad output) is retried up to
    [Config.exec_retries] whole executions; exhaustion writes the
    reference output into the user buffer and the row degrades to a
    verified [Report.Degraded].

    With [pool] a [Vim] run borrows its platform from (and returns it to)
    a {!Platform.Pool} under the row label instead of building one per
    call — byte-identical results, a fraction of the host cost.

    [inspect] runs against the live platform of a [Vim] run after it
    completes (and before it is returned to the pool): the chaos harness
    uses it to run the VIM consistency checker and read recovery
    statistics. [Sw] and [Normal] ignore [pool] and [inspect].

    [recipe] (default [Jobs.recipe input]) must be [input]'s recipe; a
    caller that runs one input many times passes the same one each time,
    so its reference is computed once. The run only reads it: it copies
    the objects' contents into the user buffers and compares the output
    with the reference (or, degraded, copies the reference out); it
    never writes to either. *)

val normal_clock :
  Rvi_sim.Engine.t -> Rvi_fpga.Bitstream.t -> Rvi_coproc.Coproc.t ->
  Rvi_sim.Clock.t
(** The normal path's clock: a stopped clock at the bit-stream's IMU
    frequency whose one component is the coprocessor, divided by the
    bit-stream's [coproc_divide]. *)

(** Host wall-clock spent in the virtual runs, split into setup (platform
    acquisition, buffers, load, map), execute (the FPGA_EXECUTE attempt
    loop) and report (stats reads, fallback, row assembly). Accumulates
    across calls until {!Phases.reset}; the campaign benchmark reads it to
    attribute serial time. *)
module Phases : sig
  val reset : unit -> unit

  val totals : unit -> float * float * float
  (** [(setup, execute, report)] in seconds. *)
end
