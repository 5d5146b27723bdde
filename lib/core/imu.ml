type config = {
  lookup_states : int;
  tlb_entries : int;
  tlb_organization : Tlb.organization;
  translation : Translation_mode.t;
  l2_entries : int;
  l2_hit_cycles : int;
  walker : Walker.config;
}

let default_config =
  {
    lookup_states = 2;
    tlb_entries = 8;
    tlb_organization = Tlb.Fully_associative;
    translation = Translation_mode.Paper_objects;
    l2_entries = 64;
    l2_hit_cycles = 2;
    walker = Walker.default_config;
  }

let pipelined_config = { default_config with lookup_states = 0 }

(* SVA mode runs a single address space per execution, so every TLB entry
   carries the same tag; keyed by the global virtual page number alone. *)
let sva_asid = 0

(* Access protocol: the coprocessor pulses CP_ACCESS for exactly one cycle
   with the request fields held; the IMU latches it on the next edge and
   answers with a one-cycle CP_TLBHIT pulse when the dual-port access
   completes — on the 4th rising edge after the request with the default
   2-cycle CAM search (Figure 7). A miss parks the FSM in [Faulted] with
   the coprocessor stalled until the OS resumes translation. The
   countdown states keep their payload in the [left] and [ppn]
   registers of [t]. *)
type state =
  | Idle
  | Wait (* [left] edges before the access cycle to page [ppn] *)
  | Miss_wait (* [left] edges before the fault is signalled *)
  | Faulted

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = state
end)

type access_event = {
  at_cycle : int;
  obj_id : int;
  vpn : int;
  offset : int;
  wr : bool;
  tlb_hit : bool;
}

type t = {
  cfg : config;
  port : Cp_port.t;
  dpram : Rvi_mem.Dpram.t;
  geom : Rvi_mem.Page.geometry;
  raise_irq : unit -> unit;
  tlb : Tlb.t;
  l2 : Tlb.t option; (* SVA: shared second-level TLB behind the L1 CAM *)
  walker : Walker.t option; (* SVA: hardware page-table walker *)
  sva_base : int array; (* SVA: per-object window base VA, -1 = unset *)
  mutable page_table : Rvi_os.Page_table.t option;
  fsm : Fsm.t;
  mutable left : int;
  mutable ppn : int;
  (* Latched request being translated — flat mutable fields (no
     [request option] box) because one is latched per coprocessor access,
     squarely on the campaign hot path. [req_valid] is the option tag. *)
  mutable req_valid : bool;
  mutable req_obj : int;
  mutable req_addr : int;
  mutable req_wr : bool;
  mutable req_data : int;
  mutable req_width : Cp_port.width;
  mutable param_page : int option;
  mutable params_done : bool;
  mutable fault : (int * int) option;
  mutable fin_seen : bool;
  mutable prev_fin : bool; (* for rising-edge detection across executions *)
  mutable start_pending : bool;
  mutable resume_pending : bool;
  mutable just_resumed : bool;
  (* outputs computed this cycle, committed at the edge *)
  mutable out_start : bool;
  mutable out_tlbhit : bool;
  mutable out_din : int;
  mutable cycle : int;
  mutable trace : (access_event -> unit) option;
  mutable hung : bool;
  mutable walk_errored : bool;
      (* the last SVA translation attempt aborted on an injected PTW bus
         error: the re-fault after resume is legitimate, not a double
         fault *)
  mutable injector : Rvi_inject.Injector.t option;
  stats : Rvi_sim.Stats.t;
  (* pre-resolved handles for the per-cycle / per-access hot paths *)
  c_busy : Rvi_sim.Stats.counter;
  c_hang : Rvi_sim.Stats.counter;
  c_stall : Rvi_sim.Stats.counter;
  c_accesses : Rvi_sim.Stats.counter;
  c_reads : Rvi_sim.Stats.counter;
  c_writes : Rvi_sim.Stats.counter;
  c_param_reads : Rvi_sim.Stats.counter;
}

let create ?(config = default_config) ?l2 ~port ~dpram ~raise_irq () =
  if config.lookup_states < 0 then invalid_arg "Imu.create: negative lookup_states";
  let stats = Rvi_sim.Stats.create () in
  let l2, walker =
    match config.translation with
    | Translation_mode.Paper_objects -> (None, None)
    | Translation_mode.Iommu_sva ->
      let l2 =
        match l2 with
        | Some tlb -> tlb
        | None -> Tlb.create ~entries:config.l2_entries ()
      in
      (Some l2, Some (Walker.create config.walker))
  in
  {
    cfg = config;
    port;
    dpram;
    geom = Rvi_mem.Dpram.geometry dpram;
    raise_irq;
    tlb =
      Tlb.create ~organization:config.tlb_organization
        ~entries:config.tlb_entries ();
    l2;
    walker;
    sva_base = Array.make (Cp_port.param_obj + 1) (-1);
    page_table = None;
    fsm = Fsm.create Idle;
    left = 0;
    ppn = 0;
    req_valid = false;
    req_obj = 0;
    req_addr = 0;
    req_wr = false;
    req_data = 0;
    req_width = Cp_port.W32;
    param_page = None;
    params_done = false;
    fault = None;
    fin_seen = false;
    prev_fin = false;
    start_pending = false;
    resume_pending = false;
    just_resumed = false;
    out_start = false;
    out_tlbhit = false;
    out_din = 0;
    cycle = 0;
    trace = None;
    hung = false;
    walk_errored = false;
    injector = None;
    stats;
    c_busy = Rvi_sim.Stats.counter stats "busy_cycles";
    c_hang = Rvi_sim.Stats.counter stats "hang_cycles";
    c_stall = Rvi_sim.Stats.counter stats "stall_cycles";
    c_accesses = Rvi_sim.Stats.counter stats "accesses";
    c_reads = Rvi_sim.Stats.counter stats "reads";
    c_writes = Rvi_sim.Stats.counter stats "writes";
    c_param_reads = Rvi_sim.Stats.counter stats "param_reads";
  }

let config t = t.cfg
let tlb t = t.tlb
let port t = t.port

(* SVA: the per-object window register rebases the coprocessor's
   object-local address onto the process VA space. A negative base means
   the window was never programmed — an unconditional fault; the address
   is then -1. *)
let sva_va t =
  let base = t.sva_base.(t.req_obj) in
  if base < 0 then -1 else base + t.req_addr

(* Virtual page of the latched request under the active translation mode
   (SVA: the process-global page; -1 for an unprogrammed window). *)
let req_vpn t =
  match t.cfg.translation with
  | Translation_mode.Paper_objects -> Rvi_mem.Page.vpn t.geom t.req_addr
  | Translation_mode.Iommu_sva ->
    let va = sva_va t in
    if va < 0 then -1 else Rvi_mem.Page.vpn t.geom va

let req_offset t =
  match t.cfg.translation with
  | Translation_mode.Paper_objects -> Rvi_mem.Page.offset t.geom t.req_addr
  | Translation_mode.Iommu_sva ->
    if t.req_obj = Cp_port.param_obj then Rvi_mem.Page.offset t.geom t.req_addr
    else
      let va = sva_va t in
      if va < 0 then 0 else Rvi_mem.Page.offset t.geom va

(* Replacement down the hierarchy must not lose write-back state: a dirty
   victim leaving a TLB level marks the L2 entry for the same page, or
   failing that the PTE (the architectural home of the dirty bit). *)
let fold_dirty_to_pte t ~vpn =
  match t.page_table with
  | Some pt -> (
    match Rvi_os.Page_table.find pt ~vpn with
    | Some pte -> pte.Rvi_os.Page_table.dirty <- true
    | None -> ())
  | None -> ()

let fold_dirty_from_l1 t ~vpn =
  match t.l2 with
  | Some l2 -> (
    match Tlb.lookup l2 ~obj_id:sva_asid ~vpn with
    | Tlb.Hit slot -> Tlb.mark_dirty l2 ~slot
    | Tlb.Miss -> fold_dirty_to_pte t ~vpn)
  | None -> fold_dirty_to_pte t ~vpn

(* Hardware refill of one TLB level: an invalid way if there is one, else
   the LRU entry among the allowed ways, with the victim's dirty bit
   folded down by [fold]. Returns the slot written. *)
let hw_refill tlb ~vpn ~ppn ~stamp ~fold =
  let slot = Tlb.victim_slot tlb ~obj_id:sva_asid ~vpn in
  let e = Tlb.get tlb ~slot in
  if e.Tlb.valid && e.Tlb.dirty then fold e.Tlb.vpn;
  Tlb.insert tlb ~slot ~obj_id:sva_asid ~vpn ~ppn ~stamp;
  slot

(* An L2 refill write can disturb a neighbouring cell, exactly like the
   L1 corruption the paper-mode injector models. The entries are
   parity-protected: the corrupt entry is detected and dropped rather than
   translating wrongly, its dirty bit folded down to the PTE first (the
   architectural home) so no write-back is lost. The page stays resident —
   the next touch misses both levels, re-walks, and re-wires the
   translation from the PTE. *)
let corrupt_l2_maybe t l2 =
  match t.injector with
  | None -> ()
  | Some inj ->
    if Rvi_inject.Injector.fire inj Rvi_inject.Fault.L2_corrupt then begin
      let victims = ref [] in
      for s = Tlb.entries l2 - 1 downto 0 do
        let e = Tlb.get l2 ~slot:s in
        if e.Tlb.valid then victims := s :: !victims
      done;
      match !victims with
      | [] -> ()
      | vs ->
        let s = List.nth vs (Rvi_inject.Injector.draw inj (List.length vs)) in
        let e = Tlb.get l2 ~slot:s in
        if e.Tlb.dirty then fold_dirty_to_pte t ~vpn:e.Tlb.vpn;
        Tlb.invalidate l2 ~slot:s;
        Rvi_sim.Stats.incr t.stats "l2_corruptions"
    end

(* SVA translation of the latched data-object request: L1 CAM, then the
   shared L2, then the walker over the process's page table — refilling
   upwards on the way back, as a hardware IOMMU does. Returns the physical
   page (-1 means a VIM-serviced fault) and adds the search cycles spent
   beyond the L1 CAM window to [t.left]. *)
let resolve_sva t =
  let stamp = t.cycle + t.cfg.lookup_states in
  let va = sva_va t in
  if va < 0 then -1 (* unprogrammed window: fault without searching *)
  else
    let vpn = Rvi_mem.Page.vpn t.geom va in
    let ppn =
      Tlb.translate t.tlb ~key:t.req_obj ~obj_id:sva_asid ~vpn ~stamp
        ~wr:t.req_wr
    in
    if ppn >= 0 then ppn
    else begin
      let l2 =
        match t.l2 with
        | Some l2 -> l2
        | None -> failwith "Imu: SVA mode with no L2 TLB"
      in
      t.left <- t.cfg.l2_hit_cycles;
      let ppn =
        Tlb.translate l2 ~key:t.req_obj ~obj_id:sva_asid ~vpn ~stamp ~wr:false
      in
      if ppn >= 0 then begin
        let slot =
          hw_refill t.tlb ~vpn ~ppn ~stamp ~fold:(fun v ->
              fold_dirty_from_l1 t ~vpn:v)
        in
        Tlb.touch t.tlb ~slot ~stamp ~wr:t.req_wr;
        ppn
      end
      else
        match (t.page_table, t.walker) with
        | Some pt, Some w -> (
          match t.injector with
          | Some inj
            when Rvi_inject.Injector.fire inj Rvi_inject.Fault.Walker_hang
            ->
            (* The walker wedges mid-walk: the access never completes and
               SR shows nothing. Only the VIM's watchdog (and the CR
               reset that follows) reclaims the interface — the same
               recovery row as a coprocessor hang. *)
            t.hung <- true;
            Rvi_sim.Stats.incr t.stats "walker_hangs";
            -1
          | _ -> (
            match t.injector with
            | Some inj
              when Rvi_inject.Injector.fire inj Rvi_inject.Fault.Ptw_error
              ->
              (* The walk's bus read answers with an error response: the
                 walk aborts after one level's worth of cycles and the
                 fault goes to the VIM, which resumes translation so the
                 hardware re-walks — bounded by the VIM's walk-retry
                 budget. *)
              t.walk_errored <- true;
              Rvi_sim.Stats.incr t.stats "ptw_errors";
              t.left <- t.left + (Walker.config w).Walker.cycles_per_level;
              -1
            | _ -> (
              let o = Walker.walk w pt ~vpn in
              t.left <- t.left + o.Walker.cycles;
              match o.Walker.frame with
              | Some ppn ->
                ignore
                  (hw_refill l2 ~vpn ~ppn ~stamp ~fold:(fun v ->
                       fold_dirty_to_pte t ~vpn:v));
                corrupt_l2_maybe t l2;
                let slot =
                  hw_refill t.tlb ~vpn ~ppn ~stamp ~fold:(fun v ->
                      fold_dirty_from_l1 t ~vpn:v)
                in
                Tlb.touch t.tlb ~slot ~stamp ~wr:t.req_wr;
                ppn
              | None -> -1)))
        | _ -> -1
    end

let enter_fault t =
  let vpn = req_vpn t in
  (* A repeat fault right after resume normally means the OS failed to
     install a translation — a kernel bug worth crashing on. The one
     legitimate case is an SVA walk that aborted on an injected PTW bus
     error: the translation exists, the walk of it failed, and the VIM
     bounds how often we come back here. *)
  let repeat =
    match t.fault with
    | Some (o, v) -> o = t.req_obj && v = vpn
    | None -> false
  in
  if t.just_resumed && repeat && not t.walk_errored then
    failwith
      (Printf.sprintf
         "Imu: double fault on object %d page %d — OS resumed without \
          installing a translation"
         t.req_obj vpn);
  t.walk_errored <- false;
  t.fault <- Some (t.req_obj, vpn);
  t.just_resumed <- false;
  Rvi_sim.Stats.incr t.stats "faults";
  Fsm.goto t.fsm Faulted;
  t.raise_irq ()

let perform_access t ppn =
  let offset = req_offset t in
  let bytes = Cp_port.width_bytes t.req_width in
  if offset + bytes > t.geom.Rvi_mem.Page.page_size then
    failwith "Imu: access crosses a page boundary (coprocessor must align)";
  let paddr = Rvi_mem.Page.base t.geom ppn + offset in
  let width = Cp_port.width_bits t.req_width in
  if t.req_wr then begin
    let data =
      (* A wrong-result fault: the datapath computes garbage, so the store
         carries a silently corrupted value. Nothing traps — only output
         verification can catch it. *)
      match t.injector with
      | Some inj when Rvi_inject.Injector.fire inj Rvi_inject.Fault.Coproc_wrong ->
        Rvi_sim.Stats.incr t.stats "wrong_results";
        t.req_data lxor (1 + Rvi_inject.Injector.draw inj ((1 lsl width) - 1))
      | _ -> t.req_data
    in
    Rvi_mem.Dpram.write t.dpram ~width paddr data;
    Rvi_sim.Stats.tick t.c_writes
  end
  else begin
    t.out_din <- Rvi_mem.Dpram.read t.dpram ~width paddr;
    Rvi_sim.Stats.tick t.c_reads
  end;
  t.out_tlbhit <- true;
  t.just_resumed <- false;
  t.walk_errored <- false;
  (* tested first: storing even [None] into the field costs a write
     barrier, and this runs on every access *)
  if Option.is_some t.fault then t.fault <- None

(* The CAM search result is a pure function of the TLB image at latch time
   (nothing else touches the TLB while the coprocessor is mid-access, and
   the coprocessor itself is stalled), so the IMU resolves it immediately —
   stamped with the cycle the search would have completed on — and parks in
   a countdown state whose idle hint lets the clock absorb the whole search
   window in one skip. Port waveforms, counters and the fault/IRQ edge are
   bit-identical to stepping the search cycle by cycle; only the host work
   of the intermediate edges disappears. *)
let translate_or_fault t =
  (* [left] first collects the search cycles beyond the L1 CAM window
     (always 0 in paper mode, keeping that path byte-identical), then
     counts the wait down. *)
  t.left <- 0;
  let ppn =
    if t.req_obj = Cp_port.param_obj then begin
      (* Parameter-object accesses bypass translation in both modes. *)
      match t.param_page with
      | Some ppn ->
        Rvi_sim.Stats.tick t.c_param_reads;
        ppn
      | None ->
        failwith "Imu: parameter access with no parameter page configured"
    end
    else begin
      (* The first data access marks the parameters consumed. *)
      if not t.params_done then t.params_done <- true;
      match t.cfg.translation with
      | Translation_mode.Paper_objects ->
        let vpn = Rvi_mem.Page.vpn t.geom t.req_addr in
        Tlb.translate t.tlb ~key:t.req_obj ~obj_id:t.req_obj ~vpn
          ~stamp:(t.cycle + t.cfg.lookup_states) ~wr:t.req_wr
      | Translation_mode.Iommu_sva -> resolve_sva t
    end
  in
  let states = t.cfg.lookup_states + t.left in
  if t.hung then
    (* A walker hang injected during resolution: the access never
       completes. [compute] keeps the FSM where it is until the watchdog
       abort resets the interface. *)
    Fsm.stay t.fsm
  else if ppn >= 0 then
    if states = 0 then begin
      perform_access t ppn;
      Fsm.goto t.fsm Idle
    end
    else begin
      t.left <- states;
      t.ppn <- ppn;
      Fsm.goto t.fsm Wait
    end
  else if states = 0 then enter_fault t
  else begin
    t.left <- states - 1;
    Fsm.goto t.fsm Miss_wait
  end

let begin_translation t =
  let p = t.port in
  t.req_valid <- true;
  t.req_obj <- p.Cp_port.cp_obj;
  t.req_addr <- p.Cp_port.cp_addr;
  t.req_wr <- p.Cp_port.cp_wr;
  t.req_data <- p.Cp_port.cp_dout;
  t.req_width <- p.Cp_port.cp_width;
  Rvi_sim.Stats.tick t.c_accesses;
  (match t.trace with
  | Some probe when t.req_obj <> Cp_port.param_obj ->
    let vpn = req_vpn t in
    let tlb_hit =
      match t.cfg.translation with
      | Translation_mode.Paper_objects ->
        Tlb.lookup t.tlb ~obj_id:t.req_obj ~vpn <> Tlb.Miss
      | Translation_mode.Iommu_sva ->
        vpn >= 0 && Tlb.lookup t.tlb ~obj_id:sva_asid ~vpn <> Tlb.Miss
    in
    probe
      {
        at_cycle = t.cycle;
        obj_id = t.req_obj;
        vpn;
        offset = req_offset t;
        wr = t.req_wr;
        tlb_hit;
      }
  | Some _ -> ()
  | None -> ());
  match t.injector with
  | Some inj when Rvi_inject.Injector.fire inj Rvi_inject.Fault.Coproc_hang ->
    (* The accelerator wedges: the latched access never completes, CP_TLBHIT
       never pulses, and SR shows neither fault nor fin. Only the VIM's
       watchdog (followed by a CR reset) gets out of this. *)
    t.hung <- true;
    Rvi_sim.Stats.incr t.stats "hangs";
    Fsm.stay t.fsm
  | _ -> translate_or_fault t

let compute t =
  t.out_start <- false;
  t.out_tlbhit <- false;
  if t.hung then begin
    Rvi_sim.Stats.tick t.c_hang;
    Fsm.stay t.fsm
  end
  else begin
  (match Fsm.state t.fsm with
  | Idle -> ()
  | Wait | Miss_wait | Faulted -> Rvi_sim.Stats.tick t.c_busy);
  (* CP_FIN is level-held by the coprocessor; latch its rising edge so a
     completion left over from a previous execution is not re-reported. *)
  let fin_now = t.port.Cp_port.cp_fin in
  if fin_now && (not t.prev_fin) && not t.fin_seen then begin
    t.fin_seen <- true;
    t.raise_irq ()
  end;
  t.prev_fin <- fin_now;
  match Fsm.state t.fsm with
  | Idle ->
    if t.start_pending then begin
      t.start_pending <- false;
      t.out_start <- true;
      Fsm.stay t.fsm
    end
    else if t.port.Cp_port.cp_access && not t.fin_seen then begin_translation t
    else Fsm.stay t.fsm
  | Wait when t.left > 0 -> t.left <- t.left - 1
  | Wait ->
    if not t.req_valid then
      failwith "Imu: access state with no latched request";
    perform_access t t.ppn;
    Fsm.goto t.fsm Idle
  | Miss_wait when t.left > 0 -> t.left <- t.left - 1
  | Miss_wait ->
    if not t.req_valid then
      failwith "Imu: lookup state with no latched request";
    enter_fault t
  | Faulted ->
    Rvi_sim.Stats.tick t.c_stall;
    if t.resume_pending then begin
      t.resume_pending <- false;
      t.just_resumed <- true;
      if not t.req_valid then
        failwith "Imu: resume with no latched request";
      translate_or_fault t
    end
    else Fsm.stay t.fsm
  end

let commit t =
  Fsm.commit t.fsm;
  t.port.Cp_port.cp_start <- t.out_start;
  t.port.Cp_port.cp_tlbhit <- t.out_tlbhit;
  if t.out_tlbhit then t.port.Cp_port.cp_din <- t.out_din;
  t.cycle <- t.cycle + 1

(* Idle fast-forward contract ({!Rvi_sim.Clock.component}): a tick is a
   no-op iff it would leave the FSM, the CP port and every counter exactly
   as executing it would, given no other component runs meanwhile. The
   output pulses ([cp_start]/[cp_tlbhit]) make the tick after an active
   cycle non-idle (it must drop the pulse), and a CP_FIN level change means
   rising-edge detection work, so both force an immediate tick. The
   [Wait]/[Miss_wait] countdowns are pure bookkeeping (the translation was
   resolved at latch time): their remaining decrements can be applied
   wholesale by [skip], which is what makes a whole CAM search cost one
   executed edge. *)
let idle_hint t =
  let p = t.port in
  if p.Cp_port.cp_start || p.Cp_port.cp_tlbhit then 0
  else if t.hung then max_int
  else if p.Cp_port.cp_fin <> t.prev_fin then 0
  else
    match Fsm.state t.fsm with
    | Idle ->
      if t.start_pending || (p.Cp_port.cp_access && not t.fin_seen) then 0
      else max_int
    | Wait | Miss_wait -> t.left
    | Faulted -> if t.resume_pending then 0 else max_int

let skip t k =
  t.cycle <- t.cycle + k;
  if t.hung then Rvi_sim.Stats.tick_by t.c_hang k
  else
    match Fsm.state t.fsm with
    | Idle -> ()
    | Wait | Miss_wait ->
      Rvi_sim.Stats.tick_by t.c_busy k;
      t.left <- t.left - k
    | Faulted ->
      Rvi_sim.Stats.tick_by t.c_busy k;
      Rvi_sim.Stats.tick_by t.c_stall k

(* {2 Folding a TLB-hit access (fused station slot)}

   On a TLB hit the Figure 7 handshake is fixed bookkeeping: the latch
   edge resolves the translation, the CAM-wait edges count down, and the
   access edge performs the dual-port access and raises CP_TLBHIT. None of
   those edges raises an interrupt or reads anything outside the IMU, its
   port, its L1 TLB, the dual-port RAM and the injector, so a fused
   station slot may apply them inside [skip] instead of executing them —
   the coprocessor only acts on the edge after, when it samples the
   response.

   [fold_window] is the number of upcoming edges that are such
   bookkeeping, with frozen inputs: at a latch point that is an L1 hit
   (memo or CAM) or a parameter access, the latch, the [lookup_states]
   wait edges and the access edge; in [Wait], the remaining countdown and
   the access edge. It is 0 whenever an edge could do anything else:
   a pulse to drop, a start to deliver, a CP_FIN level change, a latched
   hang, a miss (which ends in an interrupt), an access that would fail,
   or an injector observer (which stamps injected faults with the engine
   time, and a fold runs ahead of its edges' time). *)
let fits_page t addr width =
  Rvi_mem.Page.offset t.geom addr + Cp_port.width_bytes width
  <= t.geom.Rvi_mem.Page.page_size

let latch_window t =
  let p = t.port in
  let obj = p.Cp_port.cp_obj and addr = p.Cp_port.cp_addr in
  let width = p.Cp_port.cp_width in
  let hit =
    if obj = Cp_port.param_obj then
      Option.is_some t.param_page && fits_page t addr width
    else
      match t.cfg.translation with
      | Translation_mode.Paper_objects ->
        fits_page t addr width
        && Tlb.hits t.tlb ~key:obj ~obj_id:obj
             ~vpn:(Rvi_mem.Page.vpn t.geom addr)
      | Translation_mode.Iommu_sva ->
        let base = t.sva_base.(obj) in
        base >= 0
        && fits_page t (base + addr) width
        && Tlb.hits t.tlb ~key:obj ~obj_id:sva_asid
             ~vpn:(Rvi_mem.Page.vpn t.geom (base + addr))
  in
  if not hit then 0
  else if t.cfg.lookup_states = 0 then 1 (* the access is the latch edge *)
  else t.cfg.lookup_states + 2

let observed t =
  match t.injector with
  | Some inj -> Rvi_inject.Injector.observed inj
  | None -> false

let fold_window t =
  let p = t.port in
  if
    p.Cp_port.cp_start || p.Cp_port.cp_tlbhit || t.hung
    || p.Cp_port.cp_fin <> t.prev_fin
  then 0
  else
    match Fsm.state t.fsm with
    | Idle ->
      if
        t.start_pending || (not p.Cp_port.cp_access) || t.fin_seen
        || observed t
      then 0
      else latch_window t
    | Wait ->
      if p.Cp_port.cp_access || (not t.req_valid) || observed t then 0
      else if
        req_offset t + Cp_port.width_bytes t.req_width
        > t.geom.Rvi_mem.Page.page_size
      then 0 (* the access fails: let it fail on its own edge *)
      else t.left + 1
    | Miss_wait | Faulted -> 0

(* [fold t k] applies [k] ticks exactly: an edge that does work (the
   latch, the access cycle) is executed, [compute] then [commit], and the
   countdown and idle stretches go through [skip]. Within a window from
   [fold_window], where no pulse is high, no start is pending and CP_FIN
   holds its level, that is what executing every edge would do; from any
   positive [idle_hint] it is [skip]. *)
let rec fold t k =
  if k > 0 then
    if t.hung then skip t k
    else
      match Fsm.state t.fsm with
      | Wait when t.left > 0 ->
        let c = Int.min k t.left in
        skip t c;
        fold t (k - c)
      | Idle when not (t.port.Cp_port.cp_access && not t.fin_seen) -> skip t k
      | Idle | Wait ->
        compute t;
        commit t;
        fold t (k - 1)
      | Miss_wait | Faulted -> skip t k

let component t =
  Rvi_sim.Clock.component ~name:"imu"
    ~idle_hint:(fun () -> idle_hint t)
    ~skip:(fun k -> skip t k)
    ~compute:(fun () -> compute t)
    ~commit:(fun () -> commit t)
    ()

let read_ar t =
  if t.req_valid then Imu_regs.ar_encode ~obj_id:t.req_obj ~addr:t.req_addr
  else 0

let read_sr t =
  Imu_regs.sr_encode
    ~fault:(Fsm.state t.fsm = Faulted)
    ~fin:t.fin_seen
    ~busy:(Fsm.state t.fsm <> Idle)
    ~params_done:t.params_done

let write_cr t word =
  if Imu_regs.test word Imu_regs.cr_reset then begin
    Fsm.reset t.fsm Idle;
    t.hung <- false;
    t.walk_errored <- false;
    t.req_valid <- false;
    t.fault <- None;
    t.fin_seen <- false;
    t.prev_fin <- t.port.Cp_port.cp_fin;
    t.params_done <- false;
    t.start_pending <- false;
    t.resume_pending <- false;
    t.just_resumed <- false;
    t.out_start <- false;
    t.out_tlbhit <- false;
    t.port.Cp_port.cp_start <- false;
    t.port.Cp_port.cp_tlbhit <- false
  end;
  if Imu_regs.test word Imu_regs.cr_start then t.start_pending <- true;
  if Imu_regs.test word Imu_regs.cr_resume then t.resume_pending <- true

let clear_sva_windows t = Array.fill t.sva_base 0 (Array.length t.sva_base) (-1)

(* Platform pooling: full power-on reset. Everything [write_cr cr_reset]
   scrubs, plus the cycle counter, the TLB image, the parameter page, the
   data latch and the stats (in place — the pre-resolved handles above stay
   attached). Call after the CP port itself has been reset so the FIN
   level latch starts from the port's quiescent state. *)
let reset t =
  Fsm.reset t.fsm Idle;
  t.req_valid <- false;
  t.param_page <- None;
  t.params_done <- false;
  t.fault <- None;
  t.fin_seen <- false;
  t.prev_fin <- t.port.Cp_port.cp_fin;
  t.start_pending <- false;
  t.resume_pending <- false;
  t.just_resumed <- false;
  t.out_start <- false;
  t.out_tlbhit <- false;
  t.out_din <- 0;
  t.cycle <- 0;
  t.hung <- false;
  t.walk_errored <- false;
  t.injector <- None;
  Tlb.reset t.tlb;
  (match t.l2 with Some l2 -> Tlb.reset l2 | None -> ());
  (match t.walker with Some w -> Walker.reset w | None -> ());
  clear_sva_windows t;
  t.page_table <- None;
  Rvi_sim.Stats.soft_reset t.stats

(* {2 Context save/restore (tenant preemption)}

   A context is everything the hardware would hold in flip-flops for the
   executing tenant: the FSM state, the latched request, the per-run
   flags and the countdown registers, the TLB images, the SVA window registers and page-table
   binding, and the CP-port signal levels (the port is shared wiring
   between the IMU and the coprocessor, so a full swap must reinstate
   its committed levels too). Bindings that belong to the platform, not
   the tenant — the injector, the access-trace probe, the stats handles
   — deliberately stay out.

   The service only preempts with the station clock stopped (between
   [Vim.exec_pump] slices), so both FSM register views agree and
   [Fsm.reset] on restore is exact. *)

type context = {
  cx_state : state;
  cx_left : int;
  cx_ppn : int;
  cx_req_valid : bool;
  cx_req_obj : int;
  cx_req_addr : int;
  cx_req_wr : bool;
  cx_req_data : int;
  cx_req_width : Cp_port.width;
  cx_param_page : int option;
  cx_params_done : bool;
  cx_fault : (int * int) option;
  cx_fin_seen : bool;
  cx_prev_fin : bool;
  cx_start_pending : bool;
  cx_resume_pending : bool;
  cx_just_resumed : bool;
  cx_out_start : bool;
  cx_out_tlbhit : bool;
  cx_out_din : int;
  cx_cycle : int;
  cx_hung : bool;
  cx_walk_errored : bool;
  cx_tlb : Tlb.image;
  cx_l2 : Tlb.image option;
  cx_sva_base : int array;
  cx_page_table : Rvi_os.Page_table.t option;
  cx_port_obj : int;
  cx_port_addr : int;
  cx_port_dout : int;
  cx_port_access : bool;
  cx_port_wr : bool;
  cx_port_width : Cp_port.width;
  cx_port_fin : bool;
  cx_port_start : bool;
  cx_port_tlbhit : bool;
  cx_port_din : int;
}

let save_context t =
  {
    cx_state = Fsm.state t.fsm;
    cx_left = t.left;
    cx_ppn = t.ppn;
    cx_req_valid = t.req_valid;
    cx_req_obj = t.req_obj;
    cx_req_addr = t.req_addr;
    cx_req_wr = t.req_wr;
    cx_req_data = t.req_data;
    cx_req_width = t.req_width;
    cx_param_page = t.param_page;
    cx_params_done = t.params_done;
    cx_fault = t.fault;
    cx_fin_seen = t.fin_seen;
    cx_prev_fin = t.prev_fin;
    cx_start_pending = t.start_pending;
    cx_resume_pending = t.resume_pending;
    cx_just_resumed = t.just_resumed;
    cx_out_start = t.out_start;
    cx_out_tlbhit = t.out_tlbhit;
    cx_out_din = t.out_din;
    cx_cycle = t.cycle;
    cx_hung = t.hung;
    cx_walk_errored = t.walk_errored;
    cx_tlb = Tlb.save t.tlb;
    cx_l2 = Option.map Tlb.save t.l2;
    cx_sva_base = Array.copy t.sva_base;
    cx_page_table = t.page_table;
    cx_port_obj = t.port.Cp_port.cp_obj;
    cx_port_addr = t.port.Cp_port.cp_addr;
    cx_port_dout = t.port.Cp_port.cp_dout;
    cx_port_access = t.port.Cp_port.cp_access;
    cx_port_wr = t.port.Cp_port.cp_wr;
    cx_port_width = t.port.Cp_port.cp_width;
    cx_port_fin = t.port.Cp_port.cp_fin;
    cx_port_start = t.port.Cp_port.cp_start;
    cx_port_tlbhit = t.port.Cp_port.cp_tlbhit;
    cx_port_din = t.port.Cp_port.cp_din;
  }

let restore_context t cx =
  Fsm.reset t.fsm cx.cx_state;
  t.left <- cx.cx_left;
  t.ppn <- cx.cx_ppn;
  t.req_valid <- cx.cx_req_valid;
  t.req_obj <- cx.cx_req_obj;
  t.req_addr <- cx.cx_req_addr;
  t.req_wr <- cx.cx_req_wr;
  t.req_data <- cx.cx_req_data;
  t.req_width <- cx.cx_req_width;
  t.param_page <- cx.cx_param_page;
  t.params_done <- cx.cx_params_done;
  t.fault <- cx.cx_fault;
  t.fin_seen <- cx.cx_fin_seen;
  t.prev_fin <- cx.cx_prev_fin;
  t.start_pending <- cx.cx_start_pending;
  t.resume_pending <- cx.cx_resume_pending;
  t.just_resumed <- cx.cx_just_resumed;
  t.out_start <- cx.cx_out_start;
  t.out_tlbhit <- cx.cx_out_tlbhit;
  t.out_din <- cx.cx_out_din;
  t.cycle <- cx.cx_cycle;
  t.hung <- cx.cx_hung;
  t.walk_errored <- cx.cx_walk_errored;
  Tlb.restore t.tlb cx.cx_tlb;
  (match (t.l2, cx.cx_l2) with
  | Some l2, Some img -> Tlb.restore l2 img
  | Some l2, None -> Tlb.reset l2
  | None, _ -> ());
  Array.blit cx.cx_sva_base 0 t.sva_base 0 (Array.length t.sva_base);
  t.page_table <- cx.cx_page_table;
  t.port.Cp_port.cp_obj <- cx.cx_port_obj;
  t.port.Cp_port.cp_addr <- cx.cx_port_addr;
  t.port.Cp_port.cp_dout <- cx.cx_port_dout;
  t.port.Cp_port.cp_access <- cx.cx_port_access;
  t.port.Cp_port.cp_wr <- cx.cx_port_wr;
  t.port.Cp_port.cp_width <- cx.cx_port_width;
  t.port.Cp_port.cp_fin <- cx.cx_port_fin;
  t.port.Cp_port.cp_start <- cx.cx_port_start;
  t.port.Cp_port.cp_tlbhit <- cx.cx_port_tlbhit;
  t.port.Cp_port.cp_din <- cx.cx_port_din

let set_param_page t p = t.param_page <- p

(* {2 SVA register/binding interface (driven by the VIM)} *)

let l2 t = t.l2
let walker t = t.walker

let set_sva_window t ~obj ~base =
  if obj < 0 || obj > Cp_port.max_data_obj then
    invalid_arg (Printf.sprintf "Imu.set_sva_window: bad object id %d" obj);
  if base < 0 then invalid_arg "Imu.set_sva_window: negative base address";
  t.sva_base.(obj) <- base

let sva_window t ~obj =
  if obj < 0 || obj >= Array.length t.sva_base || t.sva_base.(obj) < 0 then None
  else Some t.sva_base.(obj)

let set_page_table t pt = t.page_table <- pt
let page_table t = t.page_table

let set_trace t probe = t.trace <- probe
let set_injector t inj = t.injector <- inj
let hung t = t.hung
let fault t = if Fsm.state t.fsm = Faulted then t.fault else None
let params_done t = t.params_done
let finished t = t.fin_seen
let cycle t = t.cycle
let stats t = t.stats
