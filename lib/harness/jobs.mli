(** The application registry.

    The one place that knows the applications: adpcmdecode, IDEA and the
    FIR filter, which the coprocessor service multiplexes, and the vector
    add of Figure 7, which only the paper path runs. For each it holds
    the names, bit-stream, coprocessor (behind the virtual interface and
    behind a plain dual-port memory) and per-request recipes (mapped
    objects with initial contents, scalar parameters, expected output).
    {!Runner}, the fault campaigns, the service ([Rvi_svc]) and the
    experiments build every request from here, so the paper path and the
    service path cannot drift apart. *)

type app_kind = Adpcm | Idea | Fir | Vecadd

val all : app_kind list
(** [[Adpcm; Idea; Fir]] — the station order of the service, which does
    not host [Vecadd]. *)

val kinds : app_kind list
(** Every application: {!all}, then [Vecadd]. *)

val index : app_kind -> int
(** Position in {!kinds} (so in {!all} for the service's stations). *)

val app_name : app_kind -> string
(** ["adpcm"], ["idea"], ["fir"], ["vecadd"]: the name the command line,
    the campaigns and the service use. *)

val label : app_kind -> string
(** The application column of a report row (["adpcmdecode"] for ADPCM,
    {!app_name} otherwise); also the {!Platform.Pool} key. *)

val bitstream : app_kind -> Rvi_fpga.Bitstream.t

val make_virtual :
  app_kind -> Rvi_core.Cp_port.t -> Rvi_coproc.Vport.t * Rvi_coproc.Coproc.t
(** The coprocessor behind the virtual interface. *)

val make_normal : app_kind -> Rvi_coproc.Dport.t -> Rvi_coproc.Coproc.t
(** The same coprocessor on raw dual-port memory (the normal version). *)

val normalize_bytes : app_kind -> int -> int
(** Rounds a requested input size up to the kind's alignment (IDEA and
    vecadd: 8-byte blocks and element pairs; FIR: even, at least two
    taps' worth; ADPCM: >= 1). *)

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
  | Vecadd_in of { a : int array; b : int array }
      (** 32-bit elements; [a] and [b] of equal length *)

val kind : input -> app_kind

val input_bytes : input -> int
(** The row's input size: the data bytes, or [8 n] for [n] vecadd
    element pairs. *)

val idea_ecb : decrypt:bool -> key:int array -> Bytes.t -> input
(** An IDEA ECB request (the paper's mode). *)

val generate : app_kind -> seed:int -> bytes:int -> input
(** The seeded workload of one request of [bytes] input bytes: an ADPCM
    stream; ECB encryption under a key drawn from the same seed; a
    16-tap low-pass FIR with a 12-bit shift; [bytes / 8] vecadd element
    pairs. *)

val bytes_of_words : int array -> Bytes.t
(** 32-bit words as little-endian bytes, the layout of vecadd's
    objects. *)

type recipe = {
  objects : obj list;  (** allocation and mapping order *)
  params : int list;  (** the parameter words of [FPGA_EXECUTE] *)
  out_id : int;  (** the object holding the result *)
  expected : Bytes.t Lazy.t;
      (** the software reference's result, computed on first use (after
          the hardware has run, where verification needs it) *)
}

val recipe : input -> recipe

val alloc : Rvi_os.Kernel.t -> obj list -> (obj * Rvi_os.Uspace.buf) list
(** Allocates one user buffer per object in list order, writing each
    object's initial contents — exactly [Uspace.of_bytes] for an
    initialised object and [Uspace.alloc] otherwise. Raises
    [Invalid_argument] when an [init] does not match its object's size. *)

val verify :
  Rvi_os.Kernel.t -> (obj * Rvi_os.Uspace.buf) list -> recipe -> bool
(** [verify kernel bufs r]: the user buffer of [r]'s output object holds
    exactly [r.expected] (forcing it), compared in place. *)
