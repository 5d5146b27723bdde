(** The IMU's translation look-aside buffer.

    A small fully-associative table (content-addressable memory in the real
    IMU) mapping (object identifier, virtual page number) to a physical
    dual-port-RAM page. Entries carry validity, dirtiness and a hardware
    reference bit/stamp, "like in typical VMM systems" (paper §3.2).

    The hardware side ({!lookup}) is exercised by the IMU on every
    coprocessor access; the software side (insert/invalidate) is driven by
    the VIM over the register interface. *)

type entry = private {
  mutable valid : bool;
  mutable obj_id : int;
  mutable vpn : int;
  mutable ppn : int;  (** physical page inside the dual-port RAM *)
  mutable dirty : bool;  (** set by hardware on a translated write *)
  mutable referenced : bool;  (** set by hardware on any translated access *)
  mutable last_access : int;  (** hardware stamp of the last access *)
}

type organization =
  | Fully_associative
      (** the paper's CAM: any entry can hold any translation *)
  | Direct_mapped  (** entry index = hash(object, page) — smallest area *)
  | Set_associative of int  (** n-way: CAM cells only within a set *)

val organization_name : organization -> string

type t

val create : ?organization:organization -> entries:int -> unit -> t
(** Default {!Fully_associative}. [Set_associative n] requires [n] to
    divide [entries]. *)

val entries : t -> int
val organization : t -> organization

val way_slots : t -> obj_id:int -> vpn:int -> int list
(** The slots allowed to hold this translation under the TLB's
    organisation (all of them for the CAM). Refills must pick among
    these. *)

type lookup = Hit of int (* slot *) | Miss

val lookup : t -> obj_id:int -> vpn:int -> lookup
(** CAM match on the upper address bits. Does not touch usage metadata. *)

val translate :
  t -> key:int -> obj_id:int -> vpn:int -> stamp:int -> wr:bool -> int
(** Hardware access path: on a hit returns the physical page and updates
    the dirty/reference/stamp metadata; on a miss returns -1 (no option
    box: this runs on every coprocessor access).

    Internally memoises, per requesting object [key], the slot of that
    object's last successful translation (the page-run fast path): a
    stream that stays on one page of each object it alternates between
    is served with three compares instead of a way scan. [key] is the
    object identifier of the request — [obj_id] itself in paper mode; in
    SVA mode every entry carries the one ASID, so only [key] tells the
    objects' runs apart. The memo is dropped on every {!insert} and
    {!invalidate}, so results, metadata updates and hit/miss counts are
    bit-identical to the pure scan — a qcheck property in [test_core]
    pins [translate] against a scan-only reference model. *)

val hits : t -> key:int -> obj_id:int -> vpn:int -> bool
(** Whether {!translate} with the same arguments would hit — a pure
    check (no metadata, memo or counter changes), memo first, then the
    way scan. *)

val insert : t -> slot:int -> obj_id:int -> vpn:int -> ppn:int -> stamp:int -> unit
(** Software refill. The entry starts clean and unreferenced, with its
    usage stamp set to [stamp] (the current IMU cycle): a just-refilled
    entry counts as most recently used, so LRU scans do not immediately
    re-victimise the page whose fault was just serviced. *)

val free_slot : t -> int option
(** An invalid slot, if any. *)

val victim_slot : ?protect:int * int -> t -> obj_id:int -> vpn:int -> int
(** The slot a refill of this translation writes: the first invalid slot
    among {!way_slots}, else the least recently used valid one (the first
    in way order on a tie) that does not hold the [protect]ed
    [(obj_id, vpn)] translation; [-1] if every way holds it. Allocates
    nothing. *)

val slot_of_ppn : t -> ppn:int -> int option
(** The valid slot translating to a physical page, if any. *)

val invalidate : t -> slot:int -> unit
val invalidate_all : t -> unit

val get : t -> slot:int -> entry
val clear_referenced : t -> slot:int -> unit

val touch : t -> slot:int -> stamp:int -> wr:bool -> unit
(** Applies the hardware-side access effects to an entry without a scan:
    sets the reference bit and usage stamp, and the dirty bit when [wr].
    Used by the SVA refill paths, where the hardware (L2 hit or walker)
    installs a translation and completes the very access that missed. *)

val mark_dirty : t -> slot:int -> unit
(** Folds write-back state down the hierarchy: marks an entry dirty, as
    when a dirty L1 entry is replaced and its state moves to the L2. *)

val valid_count : t -> int

val stats : t -> Rvi_sim.Stats.t
(** ["hits"], ["misses"], ["refills"], ["invalidations"]. *)

val reset : t -> unit
(** Scrubs every slot back to the power-on image and zeroes the counters
    in place (no ["invalidations"] ticks — this models a hardware reset,
    not software flushing). Used by the platform pool. *)

(** {1 Context save/restore}

    Tenant preemption (the multi-tenant service) swaps the whole CAM
    image with the rest of the IMU context. Neither direction ticks a
    stat counter — a context switch is not software flushing. *)

type image

val save : t -> image
(** A value copy of every slot; the TLB is unchanged. *)

val restore : t -> image -> unit
(** Overwrites every slot from the image (which must come from a TLB of
    the same entry count) and drops the page-run memo. *)
