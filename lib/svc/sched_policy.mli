(** Pluggable dispatch policies for the multi-tenant service.

    [Fcfs] and [Grouped] are the lattice-multiprogramming batch
    disciplines turned into online rules ({!Batch} runs the closed-batch
    experiment on them); [Wfq] adds weighted fair queueing over tenant
    virtual time with reconfiguration-cost awareness, and is the only
    preemptive policy. *)

type t = Fcfs | Grouped | Wfq

val all : t list
val name : t -> string
val of_name : string -> t option

val preemptive : t -> bool
(** Whether the policy may park a running tenant mid-execution. *)

type candidate = {
  c_station : int;  (** station (application kind) index *)
  c_kind : Rvi_harness.Jobs.app_kind;
  c_tenant : int;
  c_vtime : float;  (** owning tenant's virtual time, microseconds *)
  c_seq : int;  (** global enqueue ordinal (unique) *)
  c_age_us : float;  (** time since submission, microseconds *)
  c_parked : bool;  (** a preempted context rather than fresh work *)
}

val select :
  t ->
  loaded:Rvi_harness.Jobs.app_kind option ->
  reconfig_bias_us:float ->
  age_limit_us:float ->
  candidate list ->
  candidate option
(** Picks the next candidate to run. [loaded] is the kind whose
    bit-stream the lattice currently holds; [reconfig_bias_us] is the
    cost of one reconfiguration expressed in virtual-time microseconds —
    [Wfq] tolerates that much unfairness to avoid one; [age_limit_us]
    is [Grouped]'s aging escape — the oldest candidate runs regardless
    of residency once it has waited that long. Deterministic: ties
    break on the unique [c_seq]. *)
