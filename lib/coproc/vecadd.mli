(** The motivating-example coprocessor: C[i] = A[i] + B[i] (paper,
    Figures 3, 5 and 6).

    Objects: 0 = A, 1 = B, 2 = C, all vectors of 32-bit words. One scalar
    parameter: the element count. As in Figure 5, the machine emits pure
    virtual addresses — an object identifier and an index — and never
    performs any physical address calculation. *)

val obj_a : int
val obj_b : int
val obj_c : int

val reference : a:int array -> b:int array -> int array
(** The pure-software version ([add_vectors] in Figure 3). Wrapping 32-bit
    addition. Raises [Invalid_argument] on length mismatch. *)

val sw_cycles_per_element : int
(** Calibrated ARM cycles per element of the software version. *)

val create : Mem_port.t -> Coproc.t
