(** The application registry.

    The one place that knows the three applications the coprocessor
    service multiplexes — adpcmdecode, IDEA and the FIR filter: their
    names, bit-streams, virtual coprocessors and per-request recipes
    (mapped objects with initial contents, scalar parameters, expected
    output). {!Runner}, the service ([Rvi_svc]) and the experiments build
    every request for these applications from here, so the paper path
    and the service path cannot drift apart. *)

type app_kind = Adpcm | Idea | Fir

val all : app_kind list
(** [[Adpcm; Idea; Fir]] — the station order of the service. *)

val index : app_kind -> int
(** Position in {!all}. *)

val app_name : app_kind -> string

val bitstream : app_kind -> Rvi_fpga.Bitstream.t

val make_virtual :
  app_kind -> Rvi_core.Cp_port.t -> Rvi_coproc.Vport.t * Rvi_coproc.Coproc.t
(** The coprocessor behind the virtual interface. *)

val normalize_bytes : app_kind -> int -> int
(** Rounds a requested input size to the kind's alignment (IDEA: 8-byte
    blocks; FIR: even, at least two taps' worth; ADPCM: >= 1). *)

(** {1 Recipes} *)

type obj = {
  id : int;
  dir : Rvi_core.Mapped_object.direction;
  stream : bool;
  init : Bytes.t option;  (** initial contents for In/Inout objects *)
  size : int;
}
(** One object of a request: what [FPGA_MAP_OBJECT] declares plus the
    bytes its user buffer starts with. *)

type input =
  | Adpcm_in of Bytes.t  (** an IMA ADPCM stream *)
  | Idea_in of {
      key : int array;
      mode : Rvi_coproc.Idea_coproc.mode;
      iv : int array;  (** ignored by the ECB modes *)
      data : Bytes.t;
    }
  | Fir_in of { coeffs : int array; shift : int; data : Bytes.t }

val kind : input -> app_kind

val idea_ecb : decrypt:bool -> key:int array -> Bytes.t -> input
(** An IDEA ECB request (the paper's mode). *)

val generate : app_kind -> seed:int -> bytes:int -> input
(** The seeded workload of one request of [bytes] input bytes: an ADPCM
    stream; ECB encryption under a key drawn from the same seed; a
    16-tap low-pass FIR with a 12-bit shift. *)

type recipe = {
  objects : obj list;  (** allocation and mapping order *)
  params : int list;  (** the parameter words of [FPGA_EXECUTE] *)
  out_id : int;  (** the object holding the result *)
  expected : Bytes.t Lazy.t;
      (** the software reference's result, computed on first use (after
          the hardware has run, where verification needs it) *)
}

val recipe : input -> recipe

val verify : recipe -> (int -> Bytes.t) -> bool
(** [verify r read_obj]: the output object's final contents equal
    [r.expected] (forcing it). *)

val alloc : Rvi_os.Kernel.t -> obj list -> (obj * Rvi_os.Uspace.buf) list
(** Allocates one user buffer per object in list order, writing each
    object's initial contents — exactly [Uspace.of_bytes] for an
    initialised object and [Uspace.alloc] otherwise. Raises
    [Invalid_argument] when an [init] does not match its object's size. *)

val reader : Rvi_os.Kernel.t -> (obj * Rvi_os.Uspace.buf) list -> int -> Bytes.t
(** The accessor {!verify} takes: an object's current user-space
    contents, by identifier. *)
