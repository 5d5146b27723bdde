module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Stats = Rvi_sim.Stats
module Kernel = Rvi_os.Kernel
module Accounting = Rvi_os.Accounting
module Cost_model = Rvi_os.Cost_model
module Trace = Rvi_obs.Trace

let src = Logs.Src.create "rvi.vim" ~doc:"Virtual Interface Manager"

module Log = (val Logs.src_log src)

type transfer_mode = Single | Double

type copy_engine = Cpu | Dma_engine of Rvi_mem.Dma.t

type recovery = {
  max_retries : int;
  backoff : Simtime.t;
  poll : Simtime.t;
}

let default_recovery =
  { max_retries = 3; backoff = Simtime.of_us 10; poll = Simtime.of_us 200 }

(* {1 The recovery state machine, reified}

   Every recovery decision the VIM (and the runner above it) takes is one
   row of this table: given the class of the detected fault and how many
   times recovery has already been attempted, what happens next. The
   functions below are the single source of truth — [charge_copy_with_retry]
   and the SVA walk-retry bounding dispatch through them, and the property
   tests enumerate them — so the machine provably never wedges: [Retry] is
   only ever answered while [attempt <= max_retries], and every class maps
   to a terminal action ([Abort] or [Degrade]) beyond that. *)

type fault_class =
  | Copy_error  (* AHB error / DMA abort on a page transfer *)
  | Walk_error  (* SVA: the page-table walk aborted on a bus error *)
  | Hang  (* no progress: the coprocessor or the walker wedged *)
  | Lost_irq  (* a cause latched in SR with no interrupt edge *)
  | Bad_output  (* clean exit, wrong result (caught by verification) *)

let fault_class_name = function
  | Copy_error -> "copy-error"
  | Walk_error -> "walk-error"
  | Hang -> "hang"
  | Lost_irq -> "lost-irq"
  | Bad_output -> "bad-output"

let all_fault_classes = [ Copy_error; Walk_error; Hang; Lost_irq; Bad_output ]

type action =
  | Retry of { backoff : Simtime.t }
      (* re-issue the failed operation after [backoff] *)
  | Poll  (* read SR at the poll interval until the cause surfaces *)
  | Abort  (* abort_cleanup; the error propagates to the caller *)
  | Degrade  (* hand the computation to the software fallback *)

(* The transition table. [attempt] is 1-based: the decision taken after
   the [attempt]-th failure of the same operation. *)
let decide r ~cls ~attempt =
  if attempt < 1 then invalid_arg "Vim.decide: attempt must be >= 1";
  match cls with
  | Lost_irq -> Poll
  | Hang -> Abort
  | Copy_error ->
    if attempt <= r.max_retries then
      (* exponential backoff: base * 2^(attempt-1) *)
      Retry { backoff = Simtime.mul r.backoff (1 lsl Int.min 30 (attempt - 1)) }
    else Abort
  | Walk_error ->
    (* resume re-walks immediately: the walker retry has no software
       backoff, the fault service itself is the delay *)
    if attempt <= r.max_retries then Retry { backoff = Simtime.zero }
    else Abort
  | Bad_output ->
    (* whole-execution granularity: the runner re-executes within its own
       budget (it instantiates [r] with that budget), then falls back *)
    if attempt <= r.max_retries then Retry { backoff = Simtime.zero }
    else Degrade

type config = {
  policy : Policy.t;
  transfer : transfer_mode;
  prefetch : Prefetch.t;
  overlap_prefetch : bool;
  copy_engine : copy_engine;
  eager_mapping : bool;
  watchdog : Simtime.t;
  injector : Rvi_inject.Injector.t option;
  recovery : recovery;
}

let default_config () =
  {
    policy = Policy.fifo ();
    transfer = Double;
    prefetch = Prefetch.off;
    overlap_prefetch = false;
    copy_engine = Cpu;
    eager_mapping = true;
    watchdog = Simtime.of_ms 10_000;
    injector = None;
    recovery = default_recovery;
  }

type error =
  | Unmapped_object of int
  | Object_overflow of { obj_id : int; vpn : int }
  | No_frames
  | Too_many_params of { given : int; capacity : int }
  | Hardware_stall
  | Nothing_loaded
  | Bus_error
  | Dma_failed
  | Parity_error of { frame : int }
  | Sva_fault of { vpn : int }
  | Walk_failed of { vpn : int }

let error_to_string = function
  | Unmapped_object id -> Printf.sprintf "access to unmapped object %d" id
  | Object_overflow { obj_id; vpn } ->
    Printf.sprintf "object %d accessed beyond its end (page %d)" obj_id vpn
  | No_frames -> "dual-port memory too small (need parameter page + 1 frame)"
  | Too_many_params { given; capacity } ->
    Printf.sprintf "%d scalar parameters exceed the parameter page (%d words)"
      given capacity
  | Hardware_stall -> "coprocessor made no progress before the watchdog"
  | Nothing_loaded -> "no bit-stream loaded"
  | Bus_error -> "AHB error response persisted through every copy retry"
  | Dma_failed -> "DMA transfer failed through every retry"
  | Parity_error { frame } ->
    Printf.sprintf "dual-port RAM parity error in frame %d" frame
  | Sva_fault { vpn } ->
    Printf.sprintf
      "walker fault on virtual page %d outside the process address space" vpn
  | Walk_failed { vpn } ->
    Printf.sprintf
      "page-table walk of virtual page %d kept failing through every retry"
      vpn

type severity = Transient | Fatal

(* Transient errors are environmental: a clean re-execution (or a software
   fallback) can still deliver the result. Fatal ones are caller or
   configuration bugs where retrying reproduces the failure. *)
let classify = function
  | Hardware_stall | Bus_error | Dma_failed | Parity_error _ | Walk_failed _ ->
    Transient
  | Unmapped_object _ | Object_overflow _ | No_frames | Too_many_params _
  | Nothing_loaded | Sva_fault _ ->
    Fatal

type t = {
  kernel : Kernel.t;
  dpram : Rvi_mem.Dpram.t;
  imu : Imu.t;
  ahb : Rvi_mem.Ahb.t;
  clocks : Rvi_sim.Clock.t list;
  mutable cfg : config;
      (* swapped by [reset] when a pooled platform is re-armed for the next
         run (fresh policy state, injector, recovery parameters) *)
  geom : Rvi_mem.Page.geometry;
  frames : Frame_table.t;
  objects : (int, Mapped_object.t) Hashtbl.t;
  address_space : Mapped_object.t;
      (* SVA: the process address space as the one object every page
         belongs to — at VA 0, spanning the SDRAM, with no direction hint
         ([Inout]) — so a page's home is [vpn * page_size] *)
  written_back : (int * int, unit) Hashtbl.t;
      (* (obj, vpn) pairs evicted dirty: must be reloaded on refault even
         for output-only objects, or earlier results would be lost *)
  frame_dirty : (int, unit) Hashtbl.t;
      (* dirtiness folded out of evicted TLB entries (TLB smaller than the
         frame pool) *)
  mutable page_table : Rvi_os.Page_table.t option;
      (* SVA: the executing process's page table, bound by [exec_start]
         (as the IMU walker's is); bound exactly in SVA mode *)
  mutable caller : int option; (* pid sleeping in FPGA_EXECUTE *)
  (* SVA walk-retry bounding: consecutive refill-only faults on the same
     virtual page mean the hardware walk keeps aborting (a PTE exists, yet
     the walker comes back empty-handed); the streak is bounded by the
     recovery budget through {!decide}. *)
  mutable walk_retry_vpn : int;
  mutable walk_retry_count : int;
  mutable finished : bool;
  mutable error : error option;
  mutable progress_events : int;
      (* serviced real causes (fin or fault with a latched cause) — the
         watchdog re-arms only when THIS interface made progress, so
         neither a glitching controller nor another tenant's interrupt
         activity can hold the watchdog off a hung coprocessor *)
  irq_line : int;
  mutable on_abort : unit -> unit;
      (* resets the coprocessor side of the interface (port, synchroniser,
         coprocessor FSM) — wired by the platform, since the VIM only
         knows the IMU *)
  stats : Stats.t;
  c_executions : Stats.counter;
  c_preemptions : Stats.counter;
  c_resumes : Stats.counter;
  mutable spare_image : Bytes.t;
      (* a dual-port image handed back by the last [exec_resume], reused
         by the next [exec_preempt] ([Bytes.empty] when there is none): a
         station parks at most one context at a time, so steady-state
         preemption allocates no page buffers *)
}

(* Event-trace emission: no-ops unless a trace is attached to the kernel.
   [emit] records an instant at the current time; [span] records an
   interval from [t0] to now (spans are emitted at completion). *)
let emit t ?dur kind =
  match Kernel.trace t.kernel with
  | Some tr -> Trace.emit tr ~at:(Kernel.now t.kernel) ?dur kind
  | None -> ()

let span t ~t0 kind =
  match Kernel.trace t.kernel with
  | Some tr ->
    Trace.emit tr ~at:t0 ~dur:(Simtime.sub (Kernel.now t.kernel) t0) kind
  | None -> ()

let translation t = (Imu.config t.imu).Imu.translation

let rec create ?(irq_line = 0) ~kernel ~dpram ~imu ~ahb ~clocks cfg =
  let stats = Stats.create () in
  let t =
    {
      kernel;
      dpram;
      imu;
      ahb;
      clocks;
      cfg;
      geom = Rvi_mem.Dpram.geometry dpram;
      frames = Frame_table.create ~frames:(Rvi_mem.Dpram.n_pages dpram);
      objects = Hashtbl.create 8;
      address_space =
        (let page_size = Rvi_mem.Dpram.page_size dpram in
         let size = Rvi_os.Uspace.va_pages kernel ~page_size * page_size in
         Mapped_object.make ~id:Imu.sva_asid ~dir:Mapped_object.Inout
           ~buf:(Rvi_os.Uspace.view kernel ~addr:0 ~size)
           ());
      written_back = Hashtbl.create 64;
      frame_dirty = Hashtbl.create 16;
      page_table = None;
      caller = None;
      walk_retry_vpn = -1;
      walk_retry_count = 0;
      finished = false;
      error = None;
      progress_events = 0;
      irq_line;
      on_abort = (fun () -> ());
      stats;
      c_executions = Stats.counter stats "executions";
      c_preemptions = Stats.counter stats "preemptions";
      c_resumes = Stats.counter stats "resumes";
      spare_image = Bytes.empty;
    }
  in
  Rvi_os.Irq.register (Kernel.irq kernel) ~line:irq_line ~name:"imu"
    (fun () -> handle_irq t);
  t

and handle_irq t =
  let cost = Kernel.cost t.kernel in
  (* Read SR/AR over the bus and decode the cause. *)
  let t0 = Kernel.now t.kernel in
  Kernel.charge t.kernel Accounting.Sw_imu ~cycles:cost.Cost_model.fault_decode;
  span t ~t0 Trace.Decode;
  let sr = Imu.read_sr t.imu in
  if Imu_regs.test sr Imu_regs.sr_fin then handle_fin t
  else if Imu_regs.test sr Imu_regs.sr_fault then handle_fault t ~t0
  else
    (* Spurious interrupt: counted, otherwise ignored. *)
    Stats.incr t.stats "spurious_irqs"

(* One page transfer, with the recovery machine wrapped around it: the bus
   (or the DMA channel) may answer with an error response, in which case
   the kernel backs off exponentially and re-issues the transfer, up to
   [recovery.max_retries] times. Exhaustion turns into a {!Bus_error} /
   {!Dma_failed} abort. The simulator performs the data movement up front —
   a retried transfer ends with the same bytes in place, so only the cost
   and the error bookkeeping are replayed. *)
and charge_copy_with_retry t ~what bytes =
  charge_copy t bytes;
  match t.cfg.injector with
  | None -> ()
  | Some inj ->
    let kind =
      match t.cfg.copy_engine with
      | Cpu -> Rvi_inject.Fault.Ahb_error
      | Dma_engine _ -> Rvi_inject.Fault.Dma_error
    in
    let rec go attempt =
      if Rvi_inject.Injector.fire inj kind then begin
        Stats.incr t.stats "copy_errors";
        match decide t.cfg.recovery ~cls:Copy_error ~attempt with
        | Retry { backoff } ->
          Stats.incr t.stats "copy_retries";
          emit t (Trace.Retry { what; attempt });
          Kernel.charge_time t.kernel Accounting.Sw_os backoff;
          charge_copy t bytes;
          go (attempt + 1)
        | Poll | Abort | Degrade ->
          Stats.incr t.stats "copy_retries_exhausted";
          if t.error = None then
            t.error <-
              Some
                (match t.cfg.copy_engine with
                | Cpu -> Bus_error
                | Dma_engine _ -> Dma_failed)
      end
      else if attempt > 1 then begin
        Stats.incr t.stats "copies_recovered";
        emit t (Trace.Recover { what; retries = attempt - 1 })
      end
    in
    go 1

and charge_copy t bytes =
  match t.cfg.copy_engine with
  | Cpu ->
    let factor = match t.cfg.transfer with Single -> 1 | Double -> 2 in
    let cycles = factor * Rvi_mem.Ahb.copy_cycles t.ahb ~bytes in
    let t0 = Kernel.now t.kernel in
    Kernel.charge t.kernel Accounting.Sw_dp ~cycles;
    span t ~t0 (Trace.Copy { bytes; dma = false })
  | Dma_engine dma ->
    (* Program the channel, then wait out the burst; a DMA moves the data
       once regardless of the transfer-mode setting. *)
    Kernel.charge t.kernel Accounting.Sw_dp
      ~cycles:(Rvi_mem.Dma.setup_cycles dma);
    let notify ~bytes time = emit t ~dur:time (Trace.Copy { bytes; dma = true }) in
    Kernel.charge_time t.kernel Accounting.Sw_dp
      (Rvi_mem.Dma.transfer ~notify dma ~bytes)

(* SVA: the PTE of the page held in [frame], if the frame is held and the
   page table is bound. *)
and sva_pte t ~frame =
  match t.page_table with
  | None -> None
  | Some pt -> (
    match Frame_table.slot t.frames ~frame with
    | Frame_table.Held { vpn; _ } -> Rvi_os.Page_table.find pt ~vpn
    | Frame_table.Free | Frame_table.Param -> None)

(* Dirtiness of the page in [frame]: hardware TLB bit — at either level of
   the SVA hierarchy — plus the sticky PTE bit, plus anything folded back
   when a TLB entry was evicted while the page stayed resident. *)
and frame_is_dirty t ~frame =
  let dirty_in tlb =
    match Tlb.slot_of_ppn tlb ~ppn:frame with
    | Some slot -> (Tlb.get tlb ~slot).Tlb.dirty
    | None -> false
  in
  dirty_in (Imu.tlb t.imu)
  || (match Imu.l2 t.imu with Some l2 -> dirty_in l2 | None -> false)
  || Hashtbl.mem t.frame_dirty frame
  || (match sva_pte t ~frame with
     | Some pte -> pte.Rvi_os.Page_table.dirty
     | None -> false)

(* {2 What the translation modes differ in}

   Both modes run one page lifecycle: pick a frame, write the victim back
   if it is dirty, load the missing page, translate it, resume. They differ
   in three facts, one function each: the object a page belongs to, which
   fixes its home in user memory ([page_object]); which faults are legal
   ([check_fault]); how a placed page is translated ([map_page], undone by
   [unmap_page]). *)

(* The object whose slice of user memory holds [owner]'s pages, with the
   direction hint saying whether a page must be loaded and may be written
   back. Paper mode: the mapped object ([None] once it is unmapped). SVA:
   the process address space, whole pages with no hint — the PTE/TLB dirty
   bits are the only write-back information, which is exactly the trade
   the translation ablation measures. *)
and page_object t ~owner =
  match t.page_table with
  | Some _ -> Some t.address_space
  | None -> Hashtbl.find_opt t.objects owner

(* Which faults are legal, answering the object the page belongs to. Paper
   mode: the object must be mapped and the page must lie inside it. SVA:
   the page must lie inside the process address space ([vpn = -1] is an
   access through a window register that was never programmed). *)
and check_fault t ~obj_id ~vpn =
  match t.page_table with
  | Some _ ->
    if vpn < 0 || vpn >= Mapped_object.page_span t.address_space t.geom then
      Error (Sva_fault { vpn })
    else Ok t.address_space
  | None -> (
    match Hashtbl.find_opt t.objects obj_id with
    | None -> Error (Unmapped_object obj_id)
    | Some obj ->
      if vpn >= Mapped_object.page_span obj t.geom then
        Error (Object_overflow { obj_id; vpn })
      else Ok obj)

(* How a page placed in [frame] is translated. Paper mode: the VIM refills
   the TLB itself. SVA: the VIM installs the PTE and the hardware walker
   refills both TLB levels on resume, as a real IOMMU does. [resident]
   marks a fault on a page that is already placed: in paper mode the TLB
   had no room for its entry, a pure refill; in SVA mode the PTE is there,
   so the walk itself failed (injected PTW bus errors), and a streak of
   such faults on one page is bounded by the recovery table — past the
   budget the execution aborts with a transient {!Walk_failed}. *)
and map_page ?protect t ~frame ~owner ~vpn ~resident =
  match t.page_table with
  | None -> refill_tlb ?protect t ~frame ~obj_id:owner ~vpn
  | Some _ when resident ->
    if vpn = t.walk_retry_vpn then begin
      t.walk_retry_count <- t.walk_retry_count + 1;
      Stats.incr t.stats "walk_retries";
      match
        decide t.cfg.recovery ~cls:Walk_error ~attempt:t.walk_retry_count
      with
      | Retry _ ->
        emit t (Trace.Retry { what = "walk"; attempt = t.walk_retry_count })
      | Poll | Abort | Degrade ->
        Stats.incr t.stats "walk_retries_exhausted";
        if t.error = None then t.error <- Some (Walk_failed { vpn })
    end
    else begin
      t.walk_retry_vpn <- vpn;
      t.walk_retry_count <- 0
    end
  | Some pt ->
    Rvi_os.Page_table.map pt ~vpn ~frame;
    Kernel.charge t.kernel Accounting.Sw_os
      ~cycles:(Kernel.cost t.kernel).Cost_model.tlb_update

(* An evicted page's translation goes: its TLB entries are dropped by
   [invalidate_tlb_for_frame] in both modes, and in SVA mode the PTE is
   cleared too, so the next walk faults to the VIM again. *)
and unmap_page t ~vpn =
  match t.page_table with
  | None -> ()
  | Some pt ->
    Rvi_os.Page_table.unmap pt ~vpn;
    Kernel.charge t.kernel Accounting.Sw_os
      ~cycles:(Kernel.cost t.kernel).Cost_model.tlb_update

(* {2 The page lifecycle} *)

(* Write the page held in [frame] back to user memory if it is [dirty] and
   its object accepts writes. Input-only objects are never written back —
   the direction flag is the paper's optimisation hint. *)
and writeback_if_dirty t ~frame ~owner ~vpn ~dirty =
  match page_object t ~owner with
  | None -> ()
  | Some obj ->
    if dirty then begin
      match obj.Mapped_object.dir with
      | Mapped_object.In -> Stats.incr t.stats "dirty_in_dropped"
      | Mapped_object.Out | Mapped_object.Inout ->
        let len = Mapped_object.bytes_on_page obj t.geom ~vpn in
        if len > 0 then begin
          if Rvi_mem.Dpram.parity_error t.dpram ~page:frame then begin
            (* The parity sweep caught a latent bit flip: the frame's data
               cannot be trusted and there is no good copy to retry from,
               so the execution aborts (a clean re-run or the software
               fallback recovers the result). *)
            Stats.incr t.stats "parity_errors";
            if t.error = None then t.error <- Some (Parity_error { frame })
          end
          else begin
            (* Page-granular blit: the copy engine moves the page straight
               from the dual-port array into the user buffer, no bounce
               buffer. *)
            let sdram = Kernel.sdram t.kernel in
            let dst =
              obj.Mapped_object.buf.Rvi_os.Uspace.addr
              + Mapped_object.user_offset obj t.geom ~vpn
            in
            Rvi_mem.Dpram.store_page_to_ram t.dpram ~page:frame
              (Rvi_mem.Sdram.raw sdram) ~dst_pos:dst ~len;
            charge_copy_with_retry t ~what:"writeback" len;
            Hashtbl.replace t.written_back (owner, vpn) ();
            emit t
              (Trace.Page_writeback
                 { obj_id = owner; vpn; frame; bytes = len });
            Stats.incr t.stats "writebacks"
          end
        end
    end

(* Drop the TLB entry translating to [frame] — from both levels of the SVA
   hierarchy — folding its dirty bit into the software table first. *)
and invalidate_tlb_for_frame t ~frame =
  let drop tlb =
    match Tlb.slot_of_ppn tlb ~ppn:frame with
    | None -> ()
    | Some slot ->
      let cost = Kernel.cost t.kernel in
      if (Tlb.get tlb ~slot).Tlb.dirty then
        Hashtbl.replace t.frame_dirty frame ();
      Tlb.invalidate tlb ~slot;
      Kernel.charge t.kernel Accounting.Sw_imu
        ~cycles:cost.Cost_model.tlb_update;
      emit t (Trace.Tlb_invalidate { ppn = frame })
  in
  drop (Imu.tlb t.imu);
  match Imu.l2 t.imu with Some l2 -> drop l2 | None -> ()

and evict t ~frame =
  (match Frame_table.slot t.frames ~frame with
  | Frame_table.Held { obj_id = owner; vpn; _ } ->
    let dirty = frame_is_dirty t ~frame in
    (* Unmap, then drain: an access whose CAM hit preceded the
       invalidation may still be in flight inside the IMU; give it one full
       translation window (an SR read's worth of CPU time) to land in the
       old frame before the contents are snapshotted and the frame reused.
       Only then copy out. *)
    invalidate_tlb_for_frame t ~frame;
    Kernel.charge t.kernel Accounting.Sw_imu
      ~cycles:(Kernel.cost t.kernel).Cost_model.fault_decode;
    writeback_if_dirty t ~frame ~owner ~vpn ~dirty;
    unmap_page t ~vpn;
    emit t
      (Trace.Page_evict
         {
           obj_id = owner;
           vpn;
           frame;
           policy = Policy.name t.cfg.policy;
           dirty;
         });
    Stats.incr t.stats "evictions"
  | Frame_table.Param -> Stats.incr t.stats "param_releases"
  | Frame_table.Free -> ());
  Hashtbl.remove t.frame_dirty frame;
  Frame_table.release t.frames ~frame;
  let cost = Kernel.cost t.kernel in
  Kernel.charge t.kernel Accounting.Sw_os ~cycles:cost.Cost_model.page_bookkeeping

and candidates ?(exclude = []) t =
  let tlb = Imu.tlb t.imu in
  (* Usage metadata comes from the L1 entry when the page still has one,
     falling back to the shared L2 in SVA mode (an L1-evicted page's
     stamps live on there), then to the load time. *)
  let entry_for frame =
    match Tlb.slot_of_ppn tlb ~ppn:frame with
    | Some slot -> Some (Tlb.get tlb ~slot)
    | None -> (
      match Imu.l2 t.imu with
      | Some l2 -> (
        match Tlb.slot_of_ppn l2 ~ppn:frame with
        | Some slot -> Some (Tlb.get l2 ~slot)
        | None -> None)
      | None -> None)
  in
  Frame_table.resident t.frames
  |> List.filter (fun (frame, _obj, _vpn) ->
         (not (List.mem frame exclude))
         && not (Frame_table.wired t.frames ~frame))
  |> List.map (fun (frame, obj_id, vpn) ->
         let loaded_at =
           match Frame_table.slot t.frames ~frame with
           | Frame_table.Held { loaded_at; _ } -> loaded_at
           | Frame_table.Free | Frame_table.Param -> 0
         in
         match entry_for frame with
         | Some e ->
           {
             Policy.frame;
             page = (obj_id, vpn);
             loaded_at;
             last_access = e.Tlb.last_access;
             referenced = e.Tlb.referenced;
             dirty = frame_is_dirty t ~frame;
           }
         | None ->
           {
             Policy.frame;
             page = (obj_id, vpn);
             loaded_at;
             last_access = loaded_at;
             referenced = false;
             dirty = frame_is_dirty t ~frame;
           })
  |> Array.of_list

(* Find a frame for a new page: a free one, the spent parameter page, or a
   victim chosen by the replacement policy. *)
and obtain_frame ?(exclude = []) ?(clean_only = false) t =
  match Frame_table.free_frame t.frames with
  | Some frame -> Some frame
  | None -> (
    match (Frame_table.param_frame t.frames, Imu.params_done t.imu) with
    | Some frame, true ->
      Imu.set_param_page t.imu None;
      evict t ~frame;
      Some frame
    | _ ->
      let cands = candidates ~exclude t in
      let cands =
        if clean_only then
          Array.of_list
            (List.filter
               (fun c -> not c.Policy.dirty)
               (Array.to_list cands))
        else cands
      in
      if Array.length cands = 0 then None
      else begin
        let tlb = Imu.tlb t.imu in
        let clear_ref frame =
          match Tlb.slot_of_ppn tlb ~ppn:frame with
          | Some slot -> Tlb.clear_referenced tlb ~slot
          | None -> ()
        in
        let victim = Policy.choose t.cfg.policy ~clear_ref cands in
        evict t ~frame:victim;
        Some victim
      end)

(* Place (obj, vpn) into [frame]: move data if needed and translate it.
   [protect] names a page whose TLB entry must survive (the page whose
   fault is being serviced): if the refill cannot avoid its slot, the
   refill is skipped — the page stays resident and a later touch takes a
   cheap refill fault. *)
and install_page ?protect t ~frame ~obj ~vpn =
  let obj_id = obj.Mapped_object.id in
  let len = Mapped_object.bytes_on_page obj t.geom ~vpn in
  let needs_load =
    match obj.Mapped_object.dir with
    | Mapped_object.In | Mapped_object.Inout -> true
    | Mapped_object.Out -> Hashtbl.mem t.written_back (obj_id, vpn)
  in
  if needs_load then begin
    let sdram = Kernel.sdram t.kernel in
    let src =
      obj.Mapped_object.buf.Rvi_os.Uspace.addr
      + Mapped_object.user_offset obj t.geom ~vpn
    in
    Rvi_mem.Dpram.load_page_from_ram t.dpram ~page:frame
      (Rvi_mem.Sdram.raw sdram) ~src_pos:src ~len;
    charge_copy_with_retry t ~what:"page_load" len;
    emit t (Trace.Page_load { obj_id; vpn; frame; bytes = len });
    Stats.incr t.stats "pages_loaded"
  end
  else begin
    (* Output-only page touched for the first time: no transfer, just a
       clean frame (cleared for determinism; a real module would simply
       map it). *)
    Rvi_mem.Dpram.clear_page t.dpram ~page:frame;
    Stats.incr t.stats "pages_cleared"
  end;
  Frame_table.hold t.frames ~frame ~obj_id ~vpn ~loaded_at:(Imu.cycle t.imu);
  Hashtbl.remove t.frame_dirty frame;
  map_page ?protect t ~frame ~owner:obj_id ~vpn ~resident:false

and refill_tlb ?protect t ~frame ~obj_id ~vpn =
  let tlb = Imu.tlb t.imu in
  let cost = Kernel.cost t.kernel in
  (* A free way, else the least recently used non-protected entry among
     them (TLB smaller than the frame pool, or a conflict in a non-CAM
     organisation): evict it, folding its dirty bit into the software
     table. The page itself stays resident — a later touch is a cheap
     refill fault. *)
  let slot = Tlb.victim_slot ?protect tlb ~obj_id ~vpn in
  if slot < 0 then
    (* Every usable way holds the protected page: leave the new page
       resident without a translation. *)
    Stats.incr t.stats "tlb_refill_skipped"
  else begin
    let e = Tlb.get tlb ~slot in
    if e.Tlb.valid then begin
      if e.Tlb.dirty then Hashtbl.replace t.frame_dirty e.Tlb.ppn ();
      Tlb.invalidate tlb ~slot
    end;
    let t0 = Kernel.now t.kernel in
    (* Stamp the refill with the current IMU cycle so the entry is the
       most recently used — see Tlb.insert. *)
    Tlb.insert tlb ~slot ~obj_id ~vpn ~ppn:frame ~stamp:(Imu.cycle t.imu);
    Kernel.charge t.kernel Accounting.Sw_imu ~cycles:cost.Cost_model.tlb_update;
    span t ~t0 (Trace.Tlb_update { obj_id; vpn; ppn = frame });
    corrupt_tlb_maybe t ~inserted_slot:slot
  end

(* A CAM write can disturb a neighbouring cell. The entries are
   parity-protected, so the corrupt entry is detected and dropped rather
   than translating wrongly: its page stays resident and the next touch
   takes a benign refill fault. The VIM folds the dirty bit into its
   software table first so no write-back is lost. The just-written slot and
   the entry of the fault being serviced are physically distant (different
   CAM rows) and never the victim — which also keeps the IMU's double-fault
   check honest. *)
and corrupt_tlb_maybe t ~inserted_slot =
  match t.cfg.injector with
  | None -> ()
  | Some inj ->
    if Rvi_inject.Injector.fire inj Rvi_inject.Fault.Tlb_corrupt then begin
      let tlb = Imu.tlb t.imu in
      let faulting = Imu.fault t.imu in
      let victims = ref [] in
      for s = Tlb.entries tlb - 1 downto 0 do
        if s <> inserted_slot then begin
          let e = Tlb.get tlb ~slot:s in
          let is_faulting =
            match faulting with
            | Some (o, v) -> o = e.Tlb.obj_id && v = e.Tlb.vpn
            | None -> false
          in
          if e.Tlb.valid && not is_faulting then
            victims := s :: !victims
        end
      done;
      match !victims with
      | [] -> ()
      | vs ->
        let s = List.nth vs (Rvi_inject.Injector.draw inj (List.length vs)) in
        let e = Tlb.get tlb ~slot:s in
        if e.Tlb.dirty then Hashtbl.replace t.frame_dirty e.Tlb.ppn ();
        Tlb.invalidate tlb ~slot:s;
        Stats.incr t.stats "tlb_corruptions"
    end

(* Speculatively pull the next page(s) of a streaming object in during the
   same fault service, saving their future interrupt round-trips. The
   eviction policy applies as for demand faults, except that the pages
   touched by this very service are protected from becoming victims. *)
and try_prefetch t ~obj ~vpn ~protect =
  let protect_page = (obj.Mapped_object.id, vpn) in
  let last_vpn = Mapped_object.page_span obj t.geom - 1 in
  let predictions =
    Prefetch.predict t.cfg.prefetch ~stream:obj.Mapped_object.stream ~vpn
      ~last_vpn
  in
  let obj_id = obj.Mapped_object.id in
  List.fold_left
    (fun protect pvpn ->
      if Frame_table.find t.frames ~obj_id ~vpn:pvpn <> None then protect
      else
        (* Speculation never forces a write-back: evict clean pages only
           (the readahead discipline), or skip. *)
        match obtain_frame ~exclude:protect ~clean_only:true t with
        | Some frame ->
          install_page ~protect:protect_page t ~frame ~obj ~vpn:pvpn;
          emit t (Trace.Prefetch { obj_id; vpn = pvpn; frame });
          Stats.incr t.stats "prefetched";
          frame :: protect
        | None -> protect)
    protect predictions
  |> ignore

(* One page fault: validate it, then either re-translate a page that is
   already resident or place the missing one — evicting by policy if no
   frame is free — and resume the coprocessor. *)
and handle_fault t ~t0 =
  Stats.incr t.stats "faults";
  match Imu.fault t.imu with
  | None ->
    Log.debug (fun m -> m "page fault: spurious");
    Stats.incr t.stats "spurious_irqs"
  | Some (obj_id, vpn) -> (
    t.progress_events <- t.progress_events + 1;
    Log.debug (fun m -> m "page fault: object %d page %d" obj_id vpn);
    match check_fault t ~obj_id ~vpn with
    | Error e -> t.error <- Some e
    | Ok obj ->
      let owner = obj.Mapped_object.id in
      let resumed = ref false in
      let resume () =
        if not !resumed then begin
          resumed := true;
          Imu.write_cr t.imu Imu_regs.cr_resume
        end
      in
      let refill_only = ref false in
      (match Frame_table.find t.frames ~obj_id:owner ~vpn with
      | Some frame ->
        refill_only := true;
        Stats.incr t.stats "tlb_refill_faults";
        map_page t ~frame ~owner ~vpn ~resident:true
      | None -> (
        t.walk_retry_vpn <- -1;
        t.walk_retry_count <- 0;
        match obtain_frame t with
        | None -> t.error <- Some No_frames
        | Some frame ->
          install_page t ~frame ~obj ~vpn;
          (* Prefetching follows the objects' stream hints: SVA has none,
             so it neither prefetches nor resumes early. *)
          if Option.is_none t.page_table then begin
            (* With overlap, restart the coprocessor first: the
               speculative transfers below then overlap its execution. *)
            if t.cfg.overlap_prefetch then resume ();
            try_prefetch t ~obj ~vpn ~protect:[ frame ]
          end));
      if t.error = None then resume ();
      (* Service time is measured from interrupt decode ([t0]): the SR/AR
         read is part of what the coprocessor waits out. *)
      span t ~t0 (Trace.Fault { obj_id; vpn; refill_only = !refill_only });
      Stats.observe t.stats "fault_service_us"
        (Simtime.to_us (Simtime.sub (Kernel.now t.kernel) t0)))

(* FPGA_EXECUTE "performs the mapping": before the coprocessor starts, as
   many object pages as there are free frames are placed eagerly, in object
   identifier order. Working sets that fit the dual-port memory therefore
   run without a single fault — the paper's 2 KB adpcmdecode case — and
   larger ones only fault on the tail. *)
and premap t =
  let objs =
    Hashtbl.fold (fun _ o acc -> o :: acc) t.objects []
    |> List.sort (fun a b ->
           Int.compare a.Mapped_object.id b.Mapped_object.id)
  in
  List.iter
    (fun obj ->
      let span = Mapped_object.page_span obj t.geom in
      for vpn = 0 to span - 1 do
        match Frame_table.free_frame t.frames with
        | Some frame ->
          if Frame_table.find t.frames ~obj_id:obj.Mapped_object.id ~vpn = None
          then begin
            install_page t ~frame ~obj ~vpn;
            Stats.incr t.stats "premapped"
          end
        | None -> ()
      done)
    objs

and handle_fin t =
  t.progress_events <- t.progress_events + 1;
  Log.debug (fun m ->
      m "end of operation: flushing %d resident pages"
        (Frame_table.held_count t.frames));
  let cost = Kernel.cost t.kernel in
  (* Copy back to user space all the dirty data currently in the dual-port
     memory, then drop every mapping: the TLB entries first, as [evict]
     does, and in SVA mode the whole page table once every page is home. *)
  List.iter
    (fun (frame, owner, vpn) ->
      let dirty = frame_is_dirty t ~frame in
      invalidate_tlb_for_frame t ~frame;
      writeback_if_dirty t ~frame ~owner ~vpn ~dirty;
      Frame_table.release t.frames ~frame;
      Hashtbl.remove t.frame_dirty frame)
    (Frame_table.resident t.frames);
  Option.iter Rvi_os.Page_table.clear t.page_table;
  (match Frame_table.param_frame t.frames with
  | Some frame ->
    Frame_table.release t.frames ~frame;
    Imu.set_param_page t.imu None
  | None -> ());
  Kernel.charge t.kernel Accounting.Sw_os ~cycles:cost.Cost_model.page_bookkeeping;
  (match t.caller with
  | Some pid ->
    Kernel.charge t.kernel Accounting.Sw_os ~cycles:cost.Cost_model.process_wakeup;
    Rvi_os.Sched.wake (Kernel.sched t.kernel) ~pid
  | None -> ());
  t.finished <- true

let config t = t.cfg
let kernel t = t.kernel
let set_abort_hook t f = t.on_abort <- f

(* Platform pooling: re-arm the VIM for the next run with a freshly built
   configuration (new policy state, injector, recovery parameters) and no
   interface state left from the previous one. Structure — the IRQ handler
   registration and the abort hook — is kept; only state is scrubbed. *)
let reset t cfg =
  t.cfg <- cfg;
  Hashtbl.reset t.objects;
  Hashtbl.reset t.written_back;
  Hashtbl.reset t.frame_dirty;
  Frame_table.release_all t.frames;
  t.page_table <- None;
  t.caller <- None;
  t.walk_retry_vpn <- -1;
  t.walk_retry_count <- 0;
  t.finished <- false;
  t.error <- None;
  t.progress_events <- 0;
  (* in place: the pre-resolved counter handles stay attached *)
  Stats.soft_reset t.stats

(* Leave no interface state behind after a failed execution: drop every
   translation, release every frame (parameter page included) and reset the
   IMU, so the failure cannot wedge the next FPGA_EXECUTE. Dirty pages are
   deliberately not written back — after an abort their contents are
   suspect. *)
let abort_cleanup t =
  Stats.incr t.stats "aborts";
  Tlb.invalidate_all (Imu.tlb t.imu);
  (match Imu.l2 t.imu with Some l2 -> Tlb.invalidate_all l2 | None -> ());
  (match t.page_table with
  | Some pt -> Rvi_os.Page_table.clear pt
  | None -> ());
  Frame_table.release_all t.frames;
  Hashtbl.reset t.frame_dirty;
  Imu.set_param_page t.imu None;
  Imu.write_cr t.imu Imu_regs.cr_reset;
  (* A hung execution leaves the coprocessor mid-access, waiting for a
     TLBHIT that will never come; resetting the IMU alone would wedge the
     next FPGA_EXECUTE. *)
  t.on_abort ();
  Kernel.charge t.kernel Accounting.Sw_os
    ~cycles:(Kernel.cost t.kernel).Cost_model.page_bookkeeping

(* FPGA_MAP_OBJECT. Paper mode describes the object's pages to the VIM.
   SVA mode describes none — translation is by process virtual address —
   but programs the IMU window register rebasing the object's accesses
   onto the caller's VA, so bit-streams addressing CP_OBJ+CP_ADDR keep
   working unmodified: one device register write, no kernel
   bookkeeping. *)
let map_object t obj =
  let id = obj.Mapped_object.id in
  match translation t with
  | Translation_mode.Iommu_sva ->
    Imu.set_sva_window t.imu ~obj:id
      ~base:obj.Mapped_object.buf.Rvi_os.Uspace.addr;
    Kernel.charge t.kernel Accounting.Sw_imu
      ~cycles:(Kernel.cost t.kernel).Cost_model.tlb_update;
    Ok ()
  | Translation_mode.Paper_objects ->
    if Hashtbl.mem t.objects id then
      Error (Printf.sprintf "object identifier %d already mapped" id)
    else begin
      Hashtbl.add t.objects id obj;
      Ok ()
    end

(* FPGA_UNLOAD forgets every object: the paper table and the SVA windows
   alike, so a later execution cannot reach an object it did not map
   again. *)
let unmap_all t =
  Hashtbl.reset t.objects;
  Imu.clear_sva_windows t.imu

let objects t =
  Hashtbl.fold (fun _ o acc -> o :: acc) t.objects []
  |> List.sort (fun a b -> Int.compare a.Mapped_object.id b.Mapped_object.id)

(* {1 Execution}

   One FPGA_EXECUTE is one machine, cut into slices so the service can
   preempt a tenant between quanta: [exec_start] performs the prologue
   and starts the coprocessor, [exec_pump] advances simulated time up to
   a horizon servicing interrupts, and [exec_preempt]/[exec_resume] swap
   the whole interface context (IMU flip-flops, TLB images, frame table,
   dual-port RAM contents, VIM bookkeeping) out and back in. [execute]
   is the same machine run to completion with the caller asleep.

   Sessions never sleep or wake a process: admission control lives in
   the service above, and keeping the scheduler out of the loop is what
   closes the cross-tenant wake hazard ([t.caller] stays [None]
   throughout). Only [execute] sets [t.caller]. *)

type session = {
  mutable s_deadline : Simtime.t;  (* watchdog deadline, re-armed on progress *)
  s_t0 : Simtime.t;  (* Exec_begin timestamp, for the Exec_end span *)
}

type context = {
  ctx_imu : Imu.context;
  ctx_frames : Frame_table.image;
  mutable ctx_image : Bytes.t;
      (* full dual-port RAM image, page after page; handed to the VIM's
         spare slot by [exec_resume], after which it is [Bytes.empty] *)
  ctx_written_back : (int * int) list;
  ctx_frame_dirty : int list;
  ctx_objects : (int * Mapped_object.t) list;
  ctx_page_table : Rvi_os.Page_table.t option;
  ctx_walk_retry_vpn : int;
  ctx_walk_retry_count : int;
  ctx_wd_left : Simtime.t;  (* unspent watchdog budget at preemption *)
  ctx_t0 : Simtime.t;
}

let exec_start ?page_table t ~params =
  let param_capacity = Rvi_mem.Dpram.page_size t.dpram / 4 in
  if Frame_table.frames t.frames < 2 then Error No_frames
  else if List.length params > param_capacity then
    Error
      (Too_many_params { given = List.length params; capacity = param_capacity })
  else begin
    let kernel = t.kernel in
    let cost = Kernel.cost kernel in
    (* Reset the interface state left by any previous execution. *)
    Frame_table.release_all t.frames;
    Tlb.invalidate_all (Imu.tlb t.imu);
    (match Imu.l2 t.imu with Some l2 -> Tlb.invalidate_all l2 | None -> ());
    Imu.write_cr t.imu Imu_regs.cr_reset;
    Hashtbl.reset t.written_back;
    Hashtbl.reset t.frame_dirty;
    t.walk_retry_vpn <- -1;
    t.walk_retry_count <- 0;
    t.finished <- false;
    t.error <- None;
    Stats.tick t.c_executions;
    let texec = Kernel.now kernel in
    emit t Trace.Exec_begin;
    (* Seed the parameter-passing page (physical page 0); cleared first so
       a short parameter list never exposes a previous run's words. *)
    Frame_table.set_param t.frames ~frame:0;
    Rvi_mem.Dpram.clear_page t.dpram ~page:0;
    Imu.set_param_page t.imu (Some 0);
    List.iteri
      (fun i v ->
        Rvi_mem.Dpram.cpu_write32 t.dpram (4 * i) v;
        Kernel.charge kernel Accounting.Sw_os ~cycles:cost.Cost_model.param_word)
      params;
    (match translation t with
    | Translation_mode.Paper_objects ->
      if t.cfg.eager_mapping then premap t
    | Translation_mode.Iommu_sva ->
      (* Bind the (empty) page table to the walker: pure demand paging —
         SVA has no object extents to pre-map from, which is exactly the
         trade the translation ablation measures. *)
      let pt =
        match page_table with
        | Some pt -> pt
        | None ->
          (Rvi_os.Sched.current (Kernel.sched kernel)).Rvi_os.Proc.page_table
      in
      Rvi_os.Page_table.clear pt;
      t.page_table <- Some pt;
      Imu.set_page_table t.imu (Some pt));
    t.caller <- None;
    List.iter Rvi_sim.Clock.start t.clocks;
    Imu.write_cr t.imu Imu_regs.cr_start;
    Ok
      {
        s_deadline = Simtime.add (Kernel.now kernel) t.cfg.watchdog;
        s_t0 = texec;
      }
  end

(* The watchdog bounds the gap between progress points (interrupt
   services), not the whole execution: each serviced cause re-arms it.
   With an injector attached the wait is sliced at the recovery poll
   interval so the VIM can read SR and catch a latched cause whose
   interrupt edge was lost. *)
let exec_pump t (s : session) ~until =
  let kernel = t.kernel in
  let cost = Kernel.cost kernel in
  let engine = Kernel.engine kernel in
  let irq = Kernel.irq kernel in
  let acct = Kernel.accounting kernel in
  let polling =
    t.cfg.injector <> None && Simtime.(Simtime.zero < t.cfg.recovery.poll)
  in
  let rearm () = s.s_deadline <- Simtime.add (Engine.now engine) t.cfg.watchdog in
  let watchdog () =
    emit t Trace.Watchdog;
    Stats.incr t.stats "watchdog_fires";
    t.error <- Some Hardware_stall
  in
  let rec pump hw_seg_start =
    let slice_end =
      let d = Simtime.min s.s_deadline until in
      if polling then
        Simtime.min d (Simtime.add (Engine.now engine) t.cfg.recovery.poll)
      else d
    in
    (* [slice_end] is a sound horizon: inside the wait the only things
       that can flip the condition early are time reaching [slice_end]
       and the IRQ controller turning pending — and the latter requests
       an engine break (wired in [Kernel.create]), ending any inline edge
       batch at the raising edge. [t.finished]/[t.error] only change in
       interrupt service and watchdog code, outside this wait. *)
    Engine.run_while ~horizon:slice_end engine (fun () ->
        (not (Rvi_os.Irq.any_pending irq))
        && (not t.finished) && t.error = None
        && Simtime.(Engine.now engine < slice_end));
    Accounting.add acct Accounting.Hw
      (Simtime.sub (Engine.now engine) hw_seg_start);
    if Rvi_os.Irq.any_pending irq then begin
      (* Pending causes are serviced even at quantum expiry, so a
         [`Running] return always leaves the interface quiesced — the
         scheduler can preempt without a latched interrupt in flight. *)
      let p0 = t.progress_events in
      ignore (Kernel.service_interrupts kernel);
      (* Progress means a serviced cause on THIS interface (fin or fault),
         not a mere edge: re-arming on a spurious interrupt would let a
         glitching controller hold the watchdog off forever over a hung
         coprocessor. (Found by the chaos harness: hang + spurious-IRQ
         rate never terminated.) Counting this VIM's serviced causes also
         keeps another station's interrupt traffic — serviced by the same
         kernel dispatch — from re-arming this tenant's watchdog. *)
      if t.progress_events > p0 then rearm ();
      if t.finished || t.error <> None then () else pump (Engine.now engine)
    end
    else if t.finished || t.error <> None then ()
    else if Simtime.(until <= Engine.now engine) then ()
    else if Simtime.(Engine.now engine < s.s_deadline) then begin
      (* Quiet slice. A spurious edge can glitch the line at any time —
         one opportunity per slice — and is serviced (and counted)
         through the normal dispatch path. *)
      (match t.cfg.injector with
      | Some inj
        when Rvi_inject.Injector.fire inj Rvi_inject.Fault.Irq_spurious ->
        Rvi_os.Irq.raise_line irq ~line:t.irq_line
      | _ -> ());
      if polling && not (Rvi_os.Irq.any_pending irq) then begin
        (* Poll SR: a fault or fin latched with no pending interrupt means
           the edge was lost — service the cause directly. *)
        Kernel.charge kernel Accounting.Sw_imu
          ~cycles:cost.Cost_model.fault_decode;
        let sr = Imu.read_sr t.imu in
        if
          Imu_regs.test sr Imu_regs.sr_fault
          || Imu_regs.test sr Imu_regs.sr_fin
        then begin
          Stats.incr t.stats "lost_irq_recovered";
          emit t (Trace.Recover { what = "lost_irq"; retries = 0 });
          handle_irq t;
          rearm ()
        end
      end;
      if t.finished || t.error <> None then () else pump (Engine.now engine)
    end
    else watchdog ()
  in
  (try pump (Engine.now engine) with Engine.Stalled -> watchdog ());
  if t.finished || t.error <> None then begin
    List.iter Rvi_sim.Clock.stop t.clocks;
    let result = match t.error with Some e -> Error e | None -> Ok () in
    (match result with Error _ -> abort_cleanup t | Ok () -> ());
    span t ~t0:s.s_t0 (Trace.Exec_end { ok = Result.is_ok result });
    `Done result
  end
  else `Running

let forever = Simtime.of_ps max_int

let execute t ~params =
  match exec_start t ~params with
  | Error _ as e -> e
  | Ok s ->
    let sched = Kernel.sched t.kernel in
    let caller = (Rvi_os.Sched.current sched).Rvi_os.Proc.pid in
    (* Put the caller to interruptible sleep for the duration; the fin
       handler charges its wakeup. *)
    if caller <> 0 then begin
      t.caller <- Some caller;
      Rvi_os.Sched.sleep_current sched
    end;
    let rec run () =
      match exec_pump t s ~until:forever with `Done r -> r | `Running -> run ()
    in
    let result = run () in
    (match t.caller with
    | Some pid ->
      (* The fin handler already woke the caller on the happy path; only
         the error paths that bypass [handle_fin] still need the wake so
         the caller can observe the failure. *)
      if not t.finished then Rvi_os.Sched.wake sched ~pid;
      ignore (Rvi_os.Sched.schedule sched);
      t.caller <- None
    | None -> ());
    result

let exec_preempt t (s : session) =
  List.iter Rvi_sim.Clock.stop t.clocks;
  let n_pages = Rvi_mem.Dpram.n_pages t.dpram in
  let page_size = Rvi_mem.Dpram.page_size t.dpram in
  let image =
    if Bytes.length t.spare_image = n_pages * page_size then begin
      let b = t.spare_image in
      t.spare_image <- Bytes.empty;
      b
    end
    else Bytes.create (n_pages * page_size)
  in
  for page = 0 to n_pages - 1 do
    Rvi_mem.Dpram.store_page t.dpram ~page image ~dst:(page * page_size)
      ~len:page_size
  done;
  let ctx =
    {
      ctx_imu = Imu.save_context t.imu;
      ctx_frames = Frame_table.save t.frames;
      ctx_image = image;
      ctx_written_back =
        Hashtbl.fold (fun k () acc -> k :: acc) t.written_back []
        |> List.sort (fun (a, b) (c, d) ->
               let o = Int.compare a c in
               if o <> 0 then o else Int.compare b d);
      ctx_frame_dirty =
        Hashtbl.fold (fun k () acc -> k :: acc) t.frame_dirty []
        |> List.sort Int.compare;
      ctx_objects =
        Hashtbl.fold (fun id o acc -> (id, o) :: acc) t.objects []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
      ctx_page_table = t.page_table;
      ctx_walk_retry_vpn = t.walk_retry_vpn;
      ctx_walk_retry_count = t.walk_retry_count;
      (* A [`Running] return always leaves now <= deadline, so the
         remainder is never negative. *)
      ctx_wd_left = Simtime.sub s.s_deadline (Kernel.now t.kernel);
      ctx_t0 = s.s_t0;
    }
  in
  (* The context switch is charged like any other interface transfer: the
     whole dual-port image moves out, plus the bookkeeping to park it. *)
  charge_copy t (n_pages * page_size);
  Kernel.charge t.kernel Accounting.Sw_os
    ~cycles:(Kernel.cost t.kernel).Cost_model.page_bookkeeping;
  Stats.tick t.c_preemptions;
  ctx

let exec_resume t ctx =
  let n_pages = Rvi_mem.Dpram.n_pages t.dpram in
  let page_size = Rvi_mem.Dpram.page_size t.dpram in
  let image = ctx.ctx_image in
  if Bytes.length image = 0 then
    invalid_arg "Vim.exec_resume: context already resumed";
  if Bytes.length image <> n_pages * page_size then
    invalid_arg "Vim.exec_resume: context from a different geometry";
  Frame_table.restore t.frames ctx.ctx_frames;
  for page = 0 to n_pages - 1 do
    (* Whole-page reload; the page parity is recomputed by the load, a
       modelling liberty of the save/restore DMA path. *)
    Rvi_mem.Dpram.load_page t.dpram ~page image ~src:(page * page_size)
      ~len:page_size
  done;
  (* The image is consumed: it becomes the next preemption's buffer, so
     the context must never be resumed again. *)
  ctx.ctx_image <- Bytes.empty;
  t.spare_image <- image;
  Hashtbl.reset t.written_back;
  List.iter (fun k -> Hashtbl.replace t.written_back k ()) ctx.ctx_written_back;
  Hashtbl.reset t.frame_dirty;
  List.iter (fun k -> Hashtbl.replace t.frame_dirty k ()) ctx.ctx_frame_dirty;
  Hashtbl.reset t.objects;
  List.iter (fun (id, o) -> Hashtbl.replace t.objects id o) ctx.ctx_objects;
  t.page_table <- ctx.ctx_page_table;
  Imu.set_page_table t.imu ctx.ctx_page_table;
  t.walk_retry_vpn <- ctx.ctx_walk_retry_vpn;
  t.walk_retry_count <- ctx.ctx_walk_retry_count;
  t.finished <- false;
  t.error <- None;
  t.caller <- None;
  Imu.restore_context t.imu ctx.ctx_imu;
  charge_copy t (n_pages * page_size);
  Kernel.charge t.kernel Accounting.Sw_os
    ~cycles:(Kernel.cost t.kernel).Cost_model.page_bookkeeping;
  Stats.tick t.c_resumes;
  List.iter Rvi_sim.Clock.start t.clocks;
  (* Time parked does not count against the tenant's progress budget,
     but the budget itself is NOT refreshed: the watchdog resumes with
     whatever it had left at preemption. Re-arming from scratch would
     let a hung tenant that is preempted every quantum evade its
     watchdog forever — a cross-tenant livelock. *)
  { s_deadline = Simtime.add (Kernel.now t.kernel) ctx.ctx_wd_left;
    s_t0 = ctx.ctx_t0 }

let stats t = t.stats
let frame_table t = t.frames

(* Cross-check the software frame table against the hardware TLB — the
   invariants any injection run must preserve. Used by the property tests
   and available to a paranoid campaign after every run. *)
let consistency t =
  let levels =
    (("L1", Imu.tlb t.imu)
    ::
    (match Imu.l2 t.imu with Some l2 -> [ ("L2", l2) ] | None -> []))
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* 1. No (object, page) pair resident in two frames. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (frame, obj_id, vpn) ->
      match Hashtbl.find_opt seen (obj_id, vpn) with
      | Some other ->
        err "page (%d,%d) resident in frames %d and %d" obj_id vpn other frame
      | None -> Hashtbl.add seen (obj_id, vpn) frame)
    (Frame_table.resident t.frames);
  (* 2. Every valid TLB entry — at either level — translates to a frame
     the table holds for exactly that page. (In SVA mode entries are
     tagged [sva_asid], the obj_id the frame table holds.) *)
  List.iter
    (fun (lvl, tlb) ->
      for slot = 0 to Tlb.entries tlb - 1 do
        let e = Tlb.get tlb ~slot in
        if e.Tlb.valid then begin
          match Frame_table.slot t.frames ~frame:e.Tlb.ppn with
          | Frame_table.Held { obj_id; vpn; _ } ->
            if obj_id <> e.Tlb.obj_id || vpn <> e.Tlb.vpn then
              err "%s TLB slot %d maps (%d,%d) to frame %d held by (%d,%d)"
                lvl slot e.Tlb.obj_id e.Tlb.vpn e.Tlb.ppn obj_id vpn
          | Frame_table.Free ->
            err "%s TLB slot %d points at free frame %d" lvl slot e.Tlb.ppn
          | Frame_table.Param ->
            err "%s TLB slot %d points at the parameter frame %d" lvl slot
              e.Tlb.ppn
        end
      done)
    levels;
  (* 3. No dirty frame without an owner that can flush it: a mapped
     object (paper mode) or a present PTE (SVA mode). *)
  let check_dirty what frame =
    match Frame_table.slot t.frames ~frame with
    | Frame_table.Held { obj_id; vpn; _ } -> (
      match translation t with
      | Translation_mode.Paper_objects ->
        if not (Hashtbl.mem t.objects obj_id) then
          err "%s frame %d owned by unmapped object %d" what frame obj_id
      | Translation_mode.Iommu_sva -> (
        match t.page_table with
        | None -> err "%s frame %d with no page table bound" what frame
        | Some pt -> (
          match Rvi_os.Page_table.find pt ~vpn with
          | Some pte when pte.Rvi_os.Page_table.frame = frame -> ()
          | Some pte ->
            err "%s frame %d: PTE for page %d points at frame %d" what frame
              vpn pte.Rvi_os.Page_table.frame
          | None -> err "%s frame %d holds page %d with no PTE" what frame vpn)))
    | Frame_table.Free -> err "free frame %d marked %s" frame what
    | Frame_table.Param -> err "parameter frame %d marked %s" frame what
  in
  Hashtbl.iter (fun frame () -> check_dirty "dirty" frame) t.frame_dirty;
  List.iter
    (fun (_lvl, tlb) ->
      for slot = 0 to Tlb.entries tlb - 1 do
        let e = Tlb.get tlb ~slot in
        if e.Tlb.valid && e.Tlb.dirty then check_dirty "tlb-dirty" e.Tlb.ppn
      done)
    levels;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))
