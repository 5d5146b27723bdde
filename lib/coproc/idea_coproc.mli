(** The IDEA coprocessor (paper §4.1, Figure 9).

    "A complex coprocessor core running at 6 MHz with 3 pipeline stages";
    the IMU and the memory subsystem run at 24 MHz and synchronisation is
    by stalling. Objects: 0 = input blocks, 1 = output blocks. Scalar
    parameters: block count, decrypt flag, then the eight 16-bit key words.

    The pipeline is modelled structurally: a fetch unit reading 64-bit
    blocks as two 32-bit bus words, three stages of {!stage_cycles} each
    (about three cipher rounds per stage, a few cycles per round for the
    serial 16x16 multiplier mod 2^16+1 that fits the EPXA1's lattice), and
    a retire unit. Fetch and retire share the single memory port, retire
    having priority. *)

val obj_in : int
val obj_out : int

val stages : int
val stage_cycles : int

val key_setup_cycles : int
(** One-time subkey expansion at start-up. *)

val sw_cycles_per_block : int
(** Calibrated ARM cycles per block of the software cipher — chosen so the
    software version reproduces the paper's 26 ms for 4 KB at 133 MHz. *)

type mode = Ecb_encrypt | Ecb_decrypt | Cbc_encrypt | Cbc_decrypt
(** CBC chains each block with the previous ciphertext. Decryption still
    pipelines (the chaining value is the *previous input*, known ahead),
    but CBC encryption serialises the 3-stage pipeline — each block's
    input needs the previous block's output. The [ext-cbc] experiment
    quantifies that classic asymmetry on this core. *)

val mode_code : mode -> int
val mode_of_code : int -> mode option
val mode_name : mode -> string

val params : n_blocks:int -> decrypt:bool -> key:int array -> int list
(** ECB parameter-page layout (back-compatible shorthand). *)

val params_mode :
  n_blocks:int -> mode:mode -> key:int array -> ?iv:int array -> unit -> int list
(** Full layout: block count, mode, eight key words, four IV words
    (ignored in ECB modes; defaults to zero). *)

val create : Mem_port.t -> Coproc.t
