(** IMA/DVI ADPCM codec — the software reference for the paper's
    [adpcmdecode] multimedia benchmark.

    Each input byte carries two 4-bit codes (low nibble first); each code
    decodes to one signed 16-bit PCM sample, so decoding produces four
    times the input size — the ratio the paper relies on to size its
    Figure 8 working sets. The decoder is the exact function the
    coprocessor implements; the encoder generates realistic compressed
    streams for the workloads. Both per-nibble kernels are branch-free in
    the code bits and the sign. *)

val step_table : int array
(** The 89-entry quantiser step table. *)

val index_table : int array
(** The 16-entry index-adaptation table. *)

type state = { mutable predictor : int; mutable index : int }

val initial_state : unit -> state

val decode_nibble : state -> int -> int
(** [decode_nibble st code] consumes a 4-bit code and returns the next
    signed 16-bit sample ([-32768, 32767]). *)

val encode_sample : state -> int -> int
(** [encode_sample st sample] returns the 4-bit code for the next sample. *)

val decoded_size : int -> int
(** Output bytes for a given input size (4x). *)

val decode : Bytes.t -> Bytes.t
(** Whole-stream decode: samples stored little-endian, two's complement. *)

val encode : Bytes.t -> Bytes.t
(** Whole-stream encode of little-endian 16-bit samples; input length must
    be a multiple of 4. *)
