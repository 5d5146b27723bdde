type entry = {
  mutable valid : bool;
  mutable obj_id : int;
  mutable vpn : int;
  mutable ppn : int;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable last_access : int;
}

type organization = Fully_associative | Direct_mapped | Set_associative of int

let organization_name = function
  | Fully_associative -> "cam"
  | Direct_mapped -> "direct-mapped"
  | Set_associative n -> Printf.sprintf "%d-way" n

type t = {
  slots : entry array;
  organization : organization;
  stats : Rvi_sim.Stats.t;
  c_hits : Rvi_sim.Stats.counter;
  c_misses : Rvi_sim.Stats.counter;
  memo : int array;
      (* the page-run fast path: per object [key land memo_mask], the slot
         of its last successful translation, -1 for none. A coprocessor
         streams through one page of each object while alternating objects,
         so [translate] checks that slot with three compares before the way
         scan; [insert]/[invalidate] drop every slot. *)
}

let fresh_entry () =
  {
    valid = false;
    obj_id = 0;
    vpn = 0;
    ppn = 0;
    dirty = false;
    referenced = false;
    last_access = 0;
  }

(* One memo slot per object id below [memo_size]; higher ids share. *)
let memo_size = 8
let memo_mask = memo_size - 1
let drop_memo t = Array.fill t.memo 0 memo_size (-1)

let create ?(organization = Fully_associative) ~entries () =
  if entries < 1 then invalid_arg "Tlb.create: need at least one entry";
  (match organization with
  | Set_associative n when n < 1 || entries mod n <> 0 ->
    invalid_arg "Tlb.create: ways must divide the entry count"
  | Set_associative _ | Fully_associative | Direct_mapped -> ());
  let stats = Rvi_sim.Stats.create () in
  {
    slots = Array.init entries (fun _ -> fresh_entry ());
    organization;
    stats;
    c_hits = Rvi_sim.Stats.counter stats "hits";
    c_misses = Rvi_sim.Stats.counter stats "misses";
    memo = Array.make memo_size (-1);
  }

let entries t = Array.length t.slots
let organization t = t.organization

(* The index hash a hardware TLB would compute from the tag bits. *)
let hash ~obj_id ~vpn = (vpn lxor (obj_id * 7)) land max_int

let way_slots t ~obj_id ~vpn =
  let n = Array.length t.slots in
  match t.organization with
  | Fully_associative -> List.init n (fun i -> i)
  | Direct_mapped -> [ hash ~obj_id ~vpn mod n ]
  | Set_associative ways ->
    let sets = n / ways in
    let set = hash ~obj_id ~vpn mod sets in
    List.init ways (fun w -> (set * ways) + w)

(* One pass over the allowed ways in [way_slots] order: the first invalid
   slot wins outright; failing one, the first valid, unprotected slot with
   the smallest usage stamp. Runs on every refill, so it scans the slot
   range in place rather than materialising the way list. *)
let victim_slot ?protect t ~obj_id ~vpn =
  let slots = t.slots in
  let n = Array.length slots in
  let first =
    match t.organization with
    | Fully_associative -> 0
    | Direct_mapped -> hash ~obj_id ~vpn mod n
    | Set_associative ways -> hash ~obj_id ~vpn mod (n / ways) * ways
  in
  let stop =
    match t.organization with
    | Fully_associative -> n
    | Direct_mapped -> first + 1
    | Set_associative ways -> first + ways
  in
  let free = ref (-1) and lru = ref (-1) and lru_stamp = ref max_int in
  let i = ref first in
  while !free < 0 && !i < stop do
    let e = slots.(!i) in
    if not e.valid then free := !i
    else if e.last_access < !lru_stamp then begin
      let protected =
        match protect with
        | Some (obj, page) -> e.obj_id = obj && e.vpn = page
        | None -> false
      in
      if not protected then begin
        lru := !i;
        lru_stamp := e.last_access
      end
    end;
    incr i
  done;
  if !free >= 0 then !free else !lru

type lookup = Hit of int | Miss

let[@inline] matches slots i ~obj_id ~vpn =
  let e = slots.(i) in
  e.valid && e.obj_id = obj_id && e.vpn = vpn

let rec scan slots i stop ~obj_id ~vpn =
  if i >= stop then -1
  else if matches slots i ~obj_id ~vpn then i
  else scan slots (i + 1) stop ~obj_id ~vpn

(* The matching slot among the candidate ways, -1 for none. Runs on every
   coprocessor access that leaves the memoised page, so it scans without
   materialising the [way_slots] list or a [lookup] box. *)
let find t ~obj_id ~vpn =
  let slots = t.slots in
  match t.organization with
  | Fully_associative -> scan slots 0 (Array.length slots) ~obj_id ~vpn
  | Direct_mapped ->
    let i = hash ~obj_id ~vpn mod Array.length slots in
    if matches slots i ~obj_id ~vpn then i else -1
  | Set_associative ways ->
    let set = hash ~obj_id ~vpn mod (Array.length slots / ways) in
    scan slots (set * ways) ((set * ways) + ways) ~obj_id ~vpn

let lookup t ~obj_id ~vpn =
  let i = find t ~obj_id ~vpn in
  if i < 0 then Miss else Hit i

let translate t ~key ~obj_id ~vpn ~stamp ~wr =
  (* Sound because a memoised slot was the scan's (first) match for its
     tag when recorded and every [insert] since would have dropped it, so
     the scan finds this same slot; [matches] checks the tag, as two keys
     may share a memo slot. The entry-side effects and stat ticks below
     are the scan path's, keeping reports bit-identical. *)
  let k = key land memo_mask in
  let m = Array.unsafe_get t.memo k in
  let i =
    if m >= 0 && matches t.slots m ~obj_id ~vpn then m else find t ~obj_id ~vpn
  in
  if i < 0 then begin
    Rvi_sim.Stats.tick t.c_misses;
    -1
  end
  else begin
    Array.unsafe_set t.memo k i;
    let e = t.slots.(i) in
    if wr then e.dirty <- true;
    e.referenced <- true;
    e.last_access <- stamp;
    Rvi_sim.Stats.tick t.c_hits;
    e.ppn
  end

let hits t ~key ~obj_id ~vpn =
  let m = Array.unsafe_get t.memo (key land memo_mask) in
  (m >= 0 && matches t.slots m ~obj_id ~vpn) || find t ~obj_id ~vpn >= 0

let check_slot t slot op =
  if slot < 0 || slot >= Array.length t.slots then
    invalid_arg (Printf.sprintf "Tlb.%s: slot %d out of range" op slot)

let touch t ~slot ~stamp ~wr =
  check_slot t slot "touch";
  let e = t.slots.(slot) in
  if wr then e.dirty <- true;
  e.referenced <- true;
  e.last_access <- stamp

let mark_dirty t ~slot =
  check_slot t slot "mark_dirty";
  t.slots.(slot).dirty <- true

let insert t ~slot ~obj_id ~vpn ~ppn ~stamp =
  check_slot t slot "insert";
  drop_memo t;
  let e = t.slots.(slot) in
  e.valid <- true;
  e.obj_id <- obj_id;
  e.vpn <- vpn;
  e.ppn <- ppn;
  e.dirty <- false;
  e.referenced <- false;
  (* Stamp the refill with the current cycle: a fresh entry is the most
     recently used, not the least. Stamping 0 here made every LRU scan
     re-victimise the page whose fault was just serviced. *)
  e.last_access <- stamp;
  Rvi_sim.Stats.incr t.stats "refills"

let free_slot t =
  let rec go i =
    if i >= Array.length t.slots then None
    else if not t.slots.(i).valid then Some i
    else go (i + 1)
  in
  go 0

let slot_of_ppn t ~ppn =
  let rec go i =
    if i >= Array.length t.slots then None
    else if t.slots.(i).valid && t.slots.(i).ppn = ppn then Some i
    else go (i + 1)
  in
  go 0

let invalidate t ~slot =
  check_slot t slot "invalidate";
  drop_memo t;
  if t.slots.(slot).valid then begin
    t.slots.(slot).valid <- false;
    Rvi_sim.Stats.incr t.stats "invalidations"
  end

let invalidate_all t =
  Array.iteri (fun slot _ -> invalidate t ~slot) t.slots

let get t ~slot =
  check_slot t slot "get";
  t.slots.(slot)

let clear_referenced t ~slot =
  check_slot t slot "clear_referenced";
  t.slots.(slot).referenced <- false

let valid_count t =
  Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) 0 t.slots

let stats t = t.stats

(* Context save/restore for tenant preemption: the image is a plain copy
   of every slot, so restoring it reproduces the translation state the
   CAM held at save time. Like [reset], neither direction ticks a stat
   (swapping contexts is not software flushing); [restore] drops the
   memo because the memoised slots belong to the outgoing context. *)

type image = entry array

let save t = Array.map (fun e -> { e with valid = e.valid }) t.slots

let restore t (img : image) =
  if Array.length img <> Array.length t.slots then
    invalid_arg "Tlb.restore: image from a different geometry";
  Array.iteri
    (fun i s ->
      let e = t.slots.(i) in
      e.valid <- s.valid;
      e.obj_id <- s.obj_id;
      e.vpn <- s.vpn;
      e.ppn <- s.ppn;
      e.dirty <- s.dirty;
      e.referenced <- s.referenced;
      e.last_access <- s.last_access)
    img;
  drop_memo t

(* Platform pooling: scrub every slot back to the power-on image (no
   "invalidations" ticks — this is a reset, not software flushing) and zero
   the counters in place so the pre-resolved hit/miss handles stay live. *)
let reset t =
  Array.iter
    (fun e ->
      e.valid <- false;
      e.obj_id <- 0;
      e.vpn <- 0;
      e.ppn <- 0;
      e.dirty <- false;
      e.referenced <- false;
      e.last_access <- 0)
    t.slots;
  drop_memo t;
  Rvi_sim.Stats.soft_reset t.stats
