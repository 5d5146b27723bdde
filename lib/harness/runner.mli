(** System assembly and measurement runs.

    One function per (application, version) pair; each run builds a fresh
    simulated platform from a {!Config.t}, executes the workload through
    the full stack (syscalls, VIM, IMU, coprocessor) or the corresponding
    baseline, verifies the output against the software reference
    bit-for-bit, and returns a {!Report.row}. *)

(** {1 Generic builders (used by the experiments and the tests)} *)

val run_virtual :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  ?fallback:(unit -> (int * Bytes.t) list) ->
  Config.t ->
  app:string ->
  bitstream:Rvi_fpga.Bitstream.t ->
  make:(Rvi_core.Cp_port.t -> Rvi_coproc.Vport.t * Rvi_coproc.Coproc.t) ->
  objects:Jobs.obj list ->
  params:int list ->
  input_bytes:int ->
  verify:((int -> Bytes.t) -> bool) ->
  Report.row
(** Full VIM-based run. [verify] receives an accessor from object id to
    final user-space contents.

    When the configuration carries an injector, a transient hardware error
    (or a clean exit with a bad output) is retried up to
    [Config.exec_retries] whole executions; exhaustion invokes [fallback]
    — the software reference, returning the bytes to write per output
    object — and the row degrades to a verified [Report.Degraded]. Without
    a [fallback] the exhausted run fails.

    With [pool] the platform is borrowed from (and returned to) a
    {!Platform.Pool} under the application name instead of being built
    per call — byte-identical results, a fraction of the host cost.

    [inspect] runs against the live platform after the run completes (and
    before it is returned to the pool): the chaos harness uses it to run
    the VIM consistency checker and read recovery statistics. *)

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

val run_normal :
  Config.t ->
  app:string ->
  clock_hz:int ->
  coproc_divide:int ->
  make:(Rvi_coproc.Dport.t -> Rvi_coproc.Coproc.t) ->
  objects:Jobs.obj list ->
  params:int list ->
  input_bytes:int ->
  verify:((int -> Bytes.t) -> bool) ->
  Report.row
(** Normal-coprocessor run (manual placement, no OS support). Produces an
    [Exceeds_memory] outcome when the working set does not fit. *)

val run_sw :
  Config.t ->
  app:string ->
  input_bytes:int ->
  cycles:int ->
  work:(unit -> bool) ->
  Report.row
(** Pure-software run: executes [work] (the reference computation,
    returning the verification result) and charges [cycles] of CPU time. *)

(** {1 The paper's applications} *)

val adpcm_sw : Config.t -> input:Bytes.t -> Report.row
val adpcm_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  input:Bytes.t ->
  Report.row
val adpcm_normal : Config.t -> input:Bytes.t -> Report.row

val idea_sw : Config.t -> key:int array -> input:Bytes.t -> Report.row
val idea_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  ?decrypt:bool ->
  Config.t ->
  key:int array ->
  input:Bytes.t ->
  Report.row
val idea_normal :
  ?decrypt:bool -> Config.t -> key:int array -> input:Bytes.t -> Report.row

val vecadd_sw : Config.t -> a:int array -> b:int array -> Report.row
val vecadd_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  a:int array ->
  b:int array ->
  Report.row

val fir_sw :
  Config.t -> coeffs:int array -> shift:int -> input:Bytes.t -> Report.row

val fir_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  coeffs:int array ->
  shift:int ->
  input:Bytes.t ->
  Report.row

val fir_normal :
  Config.t -> coeffs:int array -> shift:int -> input:Bytes.t -> Report.row

val idea_cbc_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  mode:Rvi_coproc.Idea_coproc.mode ->
  key:int array ->
  iv:int array ->
  input:Bytes.t ->
  Report.row
(** IDEA under an explicit block-cipher mode (the CBC extension); the row's
    version is tagged with the mode name. *)
