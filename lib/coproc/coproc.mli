(** Common shape of an instantiated coprocessor.

    A coprocessor is a clocked component plus the little state the system
    integrator needs: whether it has completed, a reset for re-execution,
    and its activity counters. Instances are produced by the [create]
    functions of {!Vecadd}, {!Adpcm_coproc}, {!Idea_coproc} and
    {!Fir_coproc}, each given a {!Mem_port.t}. *)

type t = {
  name : string;
  component : Rvi_sim.Clock.component;
  finished : unit -> bool;
  reset : unit -> unit;
  stats : Rvi_sim.Stats.t;
}
