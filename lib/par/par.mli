(** Deterministic chunk-sharded parallel map over OCaml 5 domains.

    Multi-run workloads (fault campaigns, ablation sweeps, benchmarks)
    are embarrassingly parallel: every run is an independent seeded
    simulation. This module shards an indexed work list over a fixed
    set of domains in contiguous chunks — no work stealing, no
    re-ordering — so the result list is a pure function of the input
    list and [f], never of the number of domains or of scheduling:

    - [map ~domains:1] takes a dedicated serial path that is
      bit-identical to [List.map f];
    - for [domains > 1] every item's result is written to its own index
      slot, so reassembly order is index order regardless of which
      domain ran which chunk;
    - chunks are claimed from a shared counter, so which {e domain}
      runs a chunk varies run to run, but chunk {e contents} (the index
      ranges) depend only on [chunk] and the list length. Anything
      derived from {!shard_of_index} is therefore deterministic.

    Determinism contract for callers: [f] must not depend on shared
    mutable state across items (give every item its own PRNG derived
    from the item index, its own trace sink, its own simulation). The
    campaign and sweep drivers in [Rvi_harness] follow this discipline. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the default for [--jobs]. *)

val default_chunk : domains:int -> int -> int
(** [default_chunk ~domains n] is the chunk size [map] uses when none is
    given: about four chunks per domain, at least 1, so self-scheduling
    smooths uneven item costs without degenerating to one item per
    claim. A pure function of [domains] and [n]. *)

val shard_of_index : chunk:int -> int -> int
(** [shard_of_index ~chunk i = i / chunk]: the chunk ordinal item [i]
    belongs to. Deterministic — campaigns stamp it into trace events as
    the shard id. *)

(** Persistent worker domains.

    Spawning a domain costs milliseconds of host time, which multi-call
    workloads (campaign + sweep + ablations in one process) would pay
    over and over. A pool spawns its workers once and reuses them for
    every [map]; workers claim contiguous chunks from a shared counter,
    so for any pool width and chunk the result list is bit-identical to
    the serial [List.map] (same lowest-index exception semantics too).

    Pools are driven from the domain that created them, one map at a
    time and never from inside another map's [f]; the driving domain
    participates in every job as the last worker. *)
module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawns [domains - 1] worker domains (default
      {!recommended_domains}; clamped to at least 1 — a width-1 pool
      spawns nothing and maps serially). *)

  val domains : t -> int

  val map : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
  (** [map t ~chunk f items] applies [f] to every item on the pooled
      workers and returns the results in input order. [chunk] defaults
      to {!default_chunk}. If one or more applications of [f] raise, the
      exception of the {e lowest-indexed} failing item is re-raised once
      every worker has finished (serial and parallel runs fail
      identically). *)

  val mapi : t -> ?chunk:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

  val shutdown : t -> unit
  (** Joins the workers. Idempotent; further [map]s raise. *)

  val shared : domains:int -> t
  (** The process-wide pool, (re)created only when [domains] differs
      from the current width — back-to-back campaigns reuse the same
      domains. Never shut this one down mid-process; it is recycled
      automatically on width change. *)
end

val map : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains ~chunk f items] is {!Pool.map} on
    {!Pool.shared}[ ~domains]. [domains] defaults to 1: a serial
    [List.map] that leaves the shared pool alone. *)

val mapi : ?domains:int -> ?chunk:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map} with the item index, e.g. to derive per-item seeds. *)
