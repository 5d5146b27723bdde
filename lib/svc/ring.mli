(** Bounded descriptor ring (virtqueue shape).

    Fixed capacity, FIFO order, refusal — not overwrite — when full:
    a full submission ring is the tenant-side backpressure signal the
    admission control builds on. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [false] when the ring is full; the element is not enqueued. *)

val pop : 'a t -> 'a option
val peek : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Oldest first; the ring is unchanged. *)
