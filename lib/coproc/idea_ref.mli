(** The IDEA block cipher — software reference for the paper's
    cryptographic benchmark.

    64-bit blocks, 128-bit keys, 8.5 rounds built from XOR, addition modulo
    2^16 and multiplication modulo 2^16 + 1 (with 0 representing 2^16).
    Decryption is encryption under the inverted key schedule. The block
    byte layout (big-endian 16-bit words, as in the published test vectors)
    is defined here once and shared with the coprocessor model, so the two
    are bit-exact by construction. *)

val mul : int -> int -> int
(** Multiplication modulo 65537 on 16-bit operands with 0 ≡ 2^16. *)

val add : int -> int -> int
val mul_inv : int -> int
val add_inv : int -> int

val key_of_words : int array -> int array
(** Validates 8 16-bit words as a 128-bit key (returns a copy). *)

val expand_key : int array -> int array
(** The 52 encryption subkeys (25-bit key rotations). *)

val invert_key : int array -> int array
(** Decryption subkeys from encryption subkeys. *)

val crypt_block : int array -> int * int * int * int -> int * int * int * int
(** One block through the 8.5 rounds under the given subkeys. *)

(** {1 Byte-level interface (shared with the coprocessor model)} *)

val block_bytes : int

val block_of_bytes : Bytes.t -> pos:int -> int * int * int * int
val block_to_bytes : Bytes.t -> pos:int -> int * int * int * int -> unit

val words_of_le32 : lo:int -> hi:int -> int * int * int * int
(** Reassemble the four big-endian 16-bit block words from the two
    little-endian 32-bit bus words a coprocessor reads. *)

val le32_of_words : int * int * int * int -> int * int
(** Inverse of {!words_of_le32}: [(lo, hi)] bus words. *)

val le32_of_pair : int -> int -> int
(** The little-endian bus word carrying two big-endian 16-bit block
    words. *)

val crypt_le32_into : int array -> lo:int -> hi:int -> int array -> unit
(** [crypt_le32_into sub ~lo ~hi out] is {!crypt_block} on the block the
    bus words [lo]/[hi] carry, its result bus words stored into [out.(0)]
    and [out.(1)] ([out] needs four cells of scratch); allocates
    nothing. *)

val ecb : key:int array -> decrypt:bool -> Bytes.t -> Bytes.t
(** Whole-buffer ECB; the length must be a multiple of 8 bytes. *)

val iv_of_words : int array -> int * int * int * int
(** Validates four 16-bit words as an initialisation vector. *)

val cbc :
  key:int array -> decrypt:bool -> iv:int array -> Bytes.t -> Bytes.t
(** Cipher-block chaining over the buffer. Encryption chains each
    plaintext block with the previous ciphertext block; decryption
    inverts it. [iv] is four 16-bit words. *)
