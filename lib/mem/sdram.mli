(** External SDRAM holding user-space data.

    The 64 MB board memory where application buffers live. The simulated
    kernel copies pages between here and the dual-port RAM; applications
    (and software baselines) read and write their buffers directly. A bump
    allocator hands out buffer addresses — the simulated processes never
    free individual buffers, whole address spaces are discarded at once,
    exactly like the arena lifetime of the short-lived benchmark programs. *)

type t

val create : size:int -> t
val size : t -> int

val alloc : t -> ?align:int -> int -> int
(** [alloc t n] reserves [n] bytes and returns their base address.
    [align] (default 4, power of two) aligns the base. Raises [Out_of_memory]
    if the arena is exhausted. *)

val used : t -> int
val release_all : t -> unit
(** Resets the allocator (contents are left in place). *)

val reset : t -> unit
(** Resets the allocator {e and} zeroes every byte that was ever inside the
    allocated region, restoring the memory image of a freshly created arena.
    Used by the platform pool so a reused SDRAM is indistinguishable from a
    new one. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read16 : t -> int -> int
val write16 : t -> int -> int -> unit
val read32 : t -> int -> int
val write32 : t -> int -> int -> unit

val write_bytes : t -> int -> Bytes.t -> unit

val read_bytes : t -> int -> len:int -> Bytes.t
(** Allocates a fresh buffer per call; a comparison should use
    {!equal_bytes} instead. *)

val equal_bytes : t -> int -> Bytes.t -> bool
(** [equal_bytes t addr b]: the bytes at [addr] equal [b], compared in
    place. *)

val blit_out : t -> src:int -> Bytes.t -> dst:int -> len:int -> unit
val blit_in : Bytes.t -> src:int -> t -> dst:int -> len:int -> unit

val raw : t -> Ram.t
(** The backing {!Ram}, for page-granular device-to-device blits (the VIM
    copy engine moves whole pages between SDRAM and DP-RAM without bouncing
    through an intermediate buffer). *)
