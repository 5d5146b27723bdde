(** Finite-state-machine scaffolding.

    A two-phase state register for a clocked control path: combinational
    logic reads the state committed at the last edge ({!S.state}), selects
    the next one ({!S.goto}), and {!S.commit} latches it at the edge.

    The state type must be immediate (constant constructors only), so a
    transition stores a word: no box is allocated and no write barrier
    runs. A state's payload (a countdown, an index, a partial sum) lives
    in the owning machine's mutable [int] fields, which its compute phase
    reads before it writes them. The IMU and every coprocessor are
    written this way. *)

module type STATE = sig
  type t [@@immediate]
end

module Make (State : STATE) : sig
  type t

  val create : State.t -> t
  (** Both register views start in the given reset state. *)

  val state : t -> State.t
  (** Committed (pre-edge) state: what combinational logic sees. *)

  val goto : t -> State.t -> unit
  (** Selects the state entered at the next commit. Last write wins. *)

  val stay : t -> unit
  (** Keeps the committed state (undoes an earlier {!goto} this cycle). *)

  val commit : t -> unit
  (** Latches the selected state. *)

  val reset : t -> State.t -> unit
  (** Forces both register views (asynchronous reset, context restore). *)
end
