(** Flat byte-addressable memory.

    Shared storage primitive behind {!Dpram} and {!Sdram}: bounds-checked
    byte/halfword/word access in little-endian order, plus bulk moves. *)

type t

val create : size:int -> t
(** Zero-initialised memory of [size] bytes. *)

val size : t -> int

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit

val read16 : t -> int -> int
val write16 : t -> int -> int -> unit
(** Little-endian, no alignment requirement (the modelled buses allow
    unaligned halfword access through byte lanes). *)

val read32 : t -> int -> int
val write32 : t -> int -> int -> unit

val read : t -> width:int -> int -> int
(** [read t ~width addr] dispatches on [width] in {8,16,32} bits. *)

val write : t -> width:int -> int -> int -> unit

val blit_from_bytes : Bytes.t -> src:int -> t -> dst:int -> len:int -> unit
val blit_to_bytes : t -> src:int -> Bytes.t -> dst:int -> len:int -> unit
val blit : t -> src:int -> t -> dst:int -> len:int -> unit

val equal_bytes : t -> pos:int -> Bytes.t -> bool
(** [equal_bytes t ~pos b]: the [Bytes.length b] bytes at [pos] equal [b].
    Compares in place, without copying or allocating. *)

val fill : t -> pos:int -> len:int -> char -> unit

val dump : t -> pos:int -> len:int -> Bytes.t
(** Copy of a region, for tests and debugging. *)
