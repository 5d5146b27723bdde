(** User-space buffers.

    Applications allocate their vectors here — addresses in the simulated
    SDRAM — and pass them to [FPGA_MAP_OBJECT] exactly like a C program
    passes heap pointers. The software baselines operate on the same
    buffers, so VIM-based and pure-software runs are compared on identical
    data. *)

type buf = private { addr : int; size : int }

val alloc : Kernel.t -> int -> buf
(** Word-aligned allocation of the given size in bytes. *)

val of_bytes : Kernel.t -> Bytes.t -> buf
(** Allocates and initialises a buffer with a copy of the data. *)

val write : Kernel.t -> buf -> Bytes.t -> unit
(** Overwrites the buffer. Raises [Invalid_argument] on size mismatch. *)

val read : Kernel.t -> buf -> Bytes.t
(** Snapshot of the buffer contents. Allocates; to compare the contents
    use {!equal}. *)

val equal : Kernel.t -> buf -> Bytes.t -> bool
(** The buffer holds exactly these bytes (same size, same contents),
    compared where they lie in the SDRAM: no copy. *)

val sub : buf -> pos:int -> len:int -> buf
(** A view of a slice of the buffer (no copy; same address space). *)

val va_pages : Kernel.t -> page_size:int -> int
(** Number of whole virtual pages the process address space (the SDRAM)
    spans at the given page size — the bound the VIM checks SVA walker
    faults against. *)

val view : Kernel.t -> addr:int -> size:int -> buf
(** Reconstructs a buffer descriptor from a raw address/size pair, as the
    kernel does when a syscall passes a user pointer. Raises
    [Invalid_argument] if the range is outside the SDRAM. *)
