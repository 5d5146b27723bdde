(** Appendable performance trajectories: the machine-written JSON-array
    files ([BENCH_campaign.json], [BENCH_serve.json]) that keep every
    measured point, newest last, so the history carries before/after
    numbers. Shared by {!Bench_campaign} and the serve series. *)

val git_commit : unit -> string
(** [git rev-parse --short HEAD], suffixed ["-dirty"] when the work tree
    has uncommitted changes; ["unknown"] outside git. *)

val host_cores : unit -> int
(** Cores this process may run on ([nproc], which honours CPU affinity
    and container limits), or [Domain.recommended_domain_count] when
    [nproc] is unavailable. *)

val read_file : string -> string option
(** The whole file, or [None] when it cannot be opened. *)

val append : path:string -> string -> string
(** [append ~path entry] splices one JSON object (indented for the array)
    in front of the closing bracket of the array at [path], creating the
    file if needed; returns [path]. *)

val indices_rev : string -> string -> int list
(** [indices_rev s key]: start offsets of every occurrence of [key] in
    [s], last first. *)

val float_field_at : string -> int -> string -> float option
(** [float_field_at s pos key]: the number after the first occurrence of
    [key] (e.g. ["\"runs_per_sec\":"]) at or after [pos] — the field of
    the entry starting at [pos]. *)
