(** Simulated time.

    Time is counted in integer picoseconds, which lets a 63-bit [int] span
    about 53 days of simulated time — ample for runs that the paper reports
    in milliseconds — while still resolving a single edge of any clock up to
    the terahertz range. *)

type t = private int
(** A point in (or span of) simulated time, in picoseconds. *)

val zero : t

val of_ps : int -> t
(** [of_ps n] is [n] picoseconds. Raises [Invalid_argument] if [n < 0]. *)

val of_ns : int -> t
val of_us : int -> t
val of_ms : int -> t

val to_ps : t -> int

val to_us : t -> float
val to_ms : t -> float
val to_s : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] raises [Invalid_argument] if the result would be negative. *)

val mul : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val period_of_hz : int -> t
(** [period_of_hz f] is the period of a clock of frequency [f] Hz, rounded
    down to the picosecond. Raises [Invalid_argument] if [f <= 0] or if [f]
    exceeds 10^12 (sub-picosecond periods are not representable). *)

val of_cycles : hz:int -> int -> t
(** [of_cycles ~hz n] is the duration of [n] cycles of a clock of frequency
    [hz]. Computed as [n * period_of_hz hz]. *)

val cycles_of : hz:int -> t -> int
(** [cycles_of ~hz t] is the number of whole cycles of a [hz] clock that fit
    in [t]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-prints with an automatically chosen unit, e.g. ["1.500ms"]. *)
