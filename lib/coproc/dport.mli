(** The {!Mem_port} operations with raw physical dual-port-RAM access —
    the "typical coprocessor" baseline.

    No IMU: every access completes in a single cycle against a hardwired
    base-address table that the driver (i.e. the programmer) must fill with
    the physical location of each array, exactly the burden Figure 3's
    middle listing shows. Out-of-bounds accesses fail the run — this is
    what "exceeds available memory" means for the normal coprocessor in
    Figure 9. Parameters are read from a register file poked by the
    driver. *)

type t

val sample : t -> unit
val start_seen : t -> bool

val issue :
  t -> region:int -> addr:int -> wr:bool -> width:Rvi_core.Cp_port.width ->
  data:int -> unit

val busy : t -> bool
val ready : t -> bool
val data : t -> int
val finish : t -> unit
val commit : t -> unit
val reset : t -> unit
val quiescent : t -> bool
val settle : t -> unit

exception Out_of_region of { region : int; addr : int }

val create : dpram:Rvi_mem.Dpram.t -> t

val set_region : t -> region:int -> base:int -> size:int -> unit
(** Hardwire a region's physical window. Raises [Invalid_argument] if the
    window exceeds the memory or [region] is not a data object id
    ([0 .. Cp_port.max_data_obj]). *)

val set_params : t -> int list -> unit
val assert_start : t -> unit
val finished : t -> bool

val set_on_finish : t -> (unit -> unit) -> unit
(** [set_on_finish t f]: [f] is called each time the coprocessor asserts
    completion ({!finish}); {!Normal_driver.run} uses it to end an inline
    edge batch on the finishing edge. *)

val accesses : t -> int
