(** Page arithmetic.

    The dual-port memory of the platform is logically organised in
    fixed-size pages (2 KB on the EPXA1, eight of them). Virtual addresses
    produced by a coprocessor and user buffers are both carved into pages of
    the same geometry. *)

type geometry = private {
  page_size : int;
  n_pages : int;
  page_shift : int;  (** [log2 page_size] *)
}

val geometry : page_size:int -> n_pages:int -> geometry
(** Raises [Invalid_argument] unless [page_size] is a power of two >= 16 and
    [n_pages >= 1]. *)

val total_bytes : geometry -> int

val vpn : geometry -> int -> int
(** Page number containing a non-negative byte address (a shift by
    [page_shift]). *)

val offset : geometry -> int -> int
(** Offset of an address within its page. *)

val base : geometry -> int -> int
(** First byte address of a page. *)

val page_count : geometry -> len:int -> int
(** Number of pages needed to hold [len] bytes starting at a page boundary
    (i.e. [ceil (len / page_size)]) for [len >= 0]. *)

val pp : Format.formatter -> geometry -> unit
