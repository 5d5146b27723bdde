(** Deterministic workload generators.

    The paper feeds the coprocessors multimedia and cryptographic data; we
    synthesise equivalents from seeded generators so every run is
    reproducible: a wandering-pitch tone with noise for the ADPCM decoder
    (compressed with the reference encoder, so the streams are legal) and
    uniform random bytes for the cipher. *)

val adpcm_stream : seed:int -> bytes:int -> Bytes.t
(** A valid IMA ADPCM stream of exactly [bytes] compressed bytes. *)

val random_bytes : seed:int -> n:int -> Bytes.t

val idea_key : seed:int -> int array
(** Eight 16-bit key words. *)

val idea_plaintext : seed:int -> bytes:int -> Bytes.t
(** Random blocks; [bytes] must be a multiple of 8. *)

val vectors : seed:int -> n:int -> int array * int array
(** Two 32-bit operand vectors for the vector-add example. *)

val fir_signal : seed:int -> bytes:int -> Bytes.t
(** A noisy multi-tone 16-bit signal for the FIR workload ([bytes] must be
    even). *)

val fir_coeffs : int array
(** The standard 16-tap low-pass coefficient set used by the FIR
    experiments, computed once and shared: do not mutate it. *)
