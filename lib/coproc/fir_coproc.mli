(** The FIR coprocessor.

    A direct-form machine with a coefficient register file (filled once
    from object 1 at start-up), a sliding sample window, and a serial
    multiply-accumulate unit — one tap per cycle, the classic minimal-area
    FIR for a small PLD. Runs at 40 MHz with the IMU, like the paper's
    adpcmdecode core.

    Objects: 0 = input samples (16-bit), 1 = coefficients (16-bit),
    2 = output samples. Scalar parameters: output count, tap count,
    accumulator shift. *)

val obj_in : int
val obj_coeff : int
val obj_out : int

val mac_cycles_per_tap : int
(** Serial MAC latency per tap (1 — one multiplier, fully pipelined). *)

val params : n_out:int -> taps:int -> shift:int -> int list

val create : Mem_port.t -> Coproc.t
