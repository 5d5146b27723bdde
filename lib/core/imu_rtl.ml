module Bits = Rvi_hw.Bits
module Reg = Rvi_hw.Reg

(* State encoding, as a synthesis tool would pick it. *)
let st_idle = Bits.make ~width:2 0
let st_lookup = Bits.make ~width:2 1
let st_access = Bits.make ~width:2 2
let st_fault = Bits.make ~width:2 3

let obj_w = 8
let addr_w = 24
let data_w = 32

type slot_regs = {
  valid : bool Reg.t;
  tag : Bits.t Reg.t; (* object id ++ virtual page number *)
  ppn : Bits.t Reg.t;
  dirty : bool Reg.t;
  referenced : bool Reg.t;
}

type t = {
  port : Cp_port.t;
  dpram : Rvi_mem.Dpram.t;
  raise_irq : unit -> unit;
  geom : Rvi_mem.Page.geometry;
  offset_w : int;
  vpn_w : int;
  ppn_w : int;
  slots : slot_regs array;
  (* datapath registers *)
  state : Bits.t Reg.t;
  lookup_cnt : Bits.t Reg.t;
  req_obj : Bits.t Reg.t;
  req_addr : Bits.t Reg.t;
  req_wr : bool Reg.t;
  req_data : Bits.t Reg.t;
  req_width : Bits.t Reg.t; (* 0 = 8, 1 = 16, 2 = 32 *)
  matched_ppn : Bits.t Reg.t;
  (* architectural flags *)
  fin_seen : bool Reg.t;
  prev_fin : bool Reg.t;
  params_done : bool Reg.t;
  start_pending : bool Reg.t;
  resume_pending : bool Reg.t;
  just_resumed : bool Reg.t;
  fault_key : (int * int) option Reg.t;
  param_page : Bits.t Reg.t;
  param_valid : bool Reg.t;
  (* output registers driving the port *)
  out_start : bool Reg.t;
  out_tlbhit : bool Reg.t;
  out_din : Bits.t Reg.t;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let create ?(entries = 8) ~port ~dpram ~raise_irq () =
  let geom = Rvi_mem.Dpram.geometry dpram in
  let offset_w = log2 geom.Rvi_mem.Page.page_size in
  let vpn_w = addr_w - offset_w in
  let ppn_w = log2 geom.Rvi_mem.Page.n_pages in
  let slot () =
    {
      valid = Reg.create false;
      tag = Reg.create (Bits.zero ~width:(obj_w + vpn_w));
      ppn = Reg.create (Bits.zero ~width:ppn_w);
      dirty = Reg.create false;
      referenced = Reg.create false;
    }
  in
  {
    port;
    dpram;
    raise_irq;
    geom;
    offset_w;
    vpn_w;
    ppn_w;
    slots = Array.init entries (fun _ -> slot ());
    state = Reg.create st_idle;
    lookup_cnt = Reg.create (Bits.zero ~width:2);
    req_obj = Reg.create (Bits.zero ~width:obj_w);
    req_addr = Reg.create (Bits.zero ~width:addr_w);
    req_wr = Reg.create false;
    req_data = Reg.create (Bits.zero ~width:data_w);
    req_width = Reg.create (Bits.zero ~width:2);
    matched_ppn = Reg.create (Bits.zero ~width:ppn_w);
    fin_seen = Reg.create false;
    prev_fin = Reg.create false;
    params_done = Reg.create false;
    start_pending = Reg.create false;
    resume_pending = Reg.create false;
    just_resumed = Reg.create false;
    fault_key = Reg.create None;
    param_page = Reg.create (Bits.zero ~width:ppn_w);
    param_valid = Reg.create false;
    out_start = Reg.create false;
    out_tlbhit = Reg.create false;
    out_din = Reg.create (Bits.zero ~width:data_w);
  }

let tag_of t ~obj_id ~vpn =
  Bits.concat (Bits.make ~width:obj_w obj_id) (Bits.make ~width:t.vpn_w vpn)

let req_vpn t =
  Bits.to_int (Bits.slice ~hi:(addr_w - 1) ~lo:t.offset_w (Reg.get t.req_addr))

let req_offset t =
  Bits.to_int (Bits.slice ~hi:(t.offset_w - 1) ~lo:0 (Reg.get t.req_addr))

(* Combinational CAM match over the committed tag registers. *)
let cam_match t ~tag =
  let rec go i =
    if i >= Array.length t.slots then None
    else if
      Reg.get t.slots.(i).valid && Bits.equal (Reg.get t.slots.(i).tag) tag
    then Some i
    else go (i + 1)
  in
  go 0

let width_bits_of t =
  match Bits.to_int (Reg.get t.req_width) with
  | 0 -> 8
  | 1 -> 16
  | _ -> 32

let latch_request t =
  let p = t.port in
  Reg.set t.req_obj (Bits.make ~width:obj_w p.Cp_port.cp_obj);
  Reg.set t.req_addr (Bits.make ~width:addr_w p.Cp_port.cp_addr);
  Reg.set t.req_wr p.Cp_port.cp_wr;
  Reg.set t.req_data (Bits.make ~width:data_w p.Cp_port.cp_dout);
  Reg.set t.req_width
    (Bits.make ~width:2
       (match p.Cp_port.cp_width with
       | Cp_port.W8 -> 0
       | Cp_port.W16 -> 1
       | Cp_port.W32 -> 2));
  Reg.set t.state st_lookup;
  Reg.set t.lookup_cnt (Bits.make ~width:2 2)

(* The CAM result cycle: translate the latched request or trap. *)
let resolve t =
  let obj_id = Bits.to_int (Reg.get t.req_obj) in
  let vpn = req_vpn t in
  if obj_id = Cp_port.param_obj then begin
    if not (Reg.get t.param_valid) then
      failwith "Imu_rtl: parameter access with no parameter page configured";
    Reg.set t.matched_ppn (Reg.get t.param_page);
    Reg.set t.state st_access
  end
  else begin
    if not (Reg.get t.params_done) then Reg.set t.params_done true;
    match cam_match t ~tag:(tag_of t ~obj_id ~vpn) with
    | Some i ->
      let s = t.slots.(i) in
      if Reg.get t.req_wr then Reg.set s.dirty true;
      Reg.set s.referenced true;
      Reg.set t.matched_ppn (Reg.get s.ppn);
      Reg.set t.state st_access;
      Reg.set t.just_resumed false;
      Reg.set t.fault_key None
    | None ->
      if Reg.get t.just_resumed && Reg.get t.fault_key = Some (obj_id, vpn) then
        failwith
          (Printf.sprintf
             "Imu_rtl: double fault on object %d page %d — OS resumed \
              without installing a translation"
             obj_id vpn);
      Reg.set t.fault_key (Some (obj_id, vpn));
      Reg.set t.just_resumed false;
      Reg.set t.state st_fault;
      t.raise_irq ()
  end

let perform_access t =
  let offset = req_offset t in
  let width = width_bits_of t in
  if offset + (width / 8) > t.geom.Rvi_mem.Page.page_size then
    failwith "Imu_rtl: access crosses a page boundary";
  let paddr =
    Rvi_mem.Page.base t.geom (Bits.to_int (Reg.get t.matched_ppn)) + offset
  in
  if Reg.get t.req_wr then
    Rvi_mem.Dpram.write t.dpram ~width paddr
      (Bits.to_int (Reg.get t.req_data))
  else
    Reg.set t.out_din
      (Bits.make ~width:data_w (Rvi_mem.Dpram.read t.dpram ~width paddr));
  Reg.set t.out_tlbhit true;
  Reg.set t.state st_idle

let compute t =
  Reg.set t.out_start false;
  Reg.set t.out_tlbhit false;
  (* CP_FIN rising-edge latch. *)
  let fin_now = t.port.Cp_port.cp_fin in
  if fin_now && (not (Reg.get t.prev_fin)) && not (Reg.get t.fin_seen) then begin
    Reg.set t.fin_seen true;
    t.raise_irq ()
  end;
  Reg.set t.prev_fin fin_now;
  let state = Reg.get t.state in
  if Bits.equal state st_idle then begin
    if Reg.get t.start_pending then begin
      Reg.set t.start_pending false;
      Reg.set t.out_start true
    end
    else if t.port.Cp_port.cp_access && not (Reg.get t.fin_seen) then
      latch_request t
  end
  else if Bits.equal state st_lookup then begin
    let cnt = Bits.to_int (Reg.get t.lookup_cnt) in
    if cnt > 1 then Reg.set t.lookup_cnt (Bits.make ~width:2 (cnt - 1))
    else resolve t
  end
  else if Bits.equal state st_access then perform_access t
  else if Reg.get t.resume_pending then begin
    (* fault state, OS asked for a retry *)
    Reg.set t.resume_pending false;
    Reg.set t.just_resumed true;
    Reg.set t.state st_lookup;
    Reg.set t.lookup_cnt (Bits.make ~width:2 2)
  end

let commit t =
  Reg.commit t.state;
  Reg.commit t.lookup_cnt;
  Reg.commit t.req_obj;
  Reg.commit t.req_addr;
  Reg.commit t.req_wr;
  Reg.commit t.req_data;
  Reg.commit t.req_width;
  Reg.commit t.matched_ppn;
  Reg.commit t.fin_seen;
  Reg.commit t.prev_fin;
  Reg.commit t.params_done;
  Reg.commit t.start_pending;
  Reg.commit t.resume_pending;
  Reg.commit t.just_resumed;
  Reg.commit t.fault_key;
  Reg.commit t.param_page;
  Reg.commit t.param_valid;
  Reg.commit t.out_start;
  Reg.commit t.out_tlbhit;
  Reg.commit t.out_din;
  Array.iter
    (fun s ->
      Reg.commit s.valid;
      Reg.commit s.tag;
      Reg.commit s.ppn;
      Reg.commit s.dirty;
      Reg.commit s.referenced)
    t.slots;
  t.port.Cp_port.cp_start <- Reg.get t.out_start;
  t.port.Cp_port.cp_tlbhit <- Reg.get t.out_tlbhit;
  if Reg.get t.out_tlbhit then
    t.port.Cp_port.cp_din <- Bits.to_int (Reg.get t.out_din)

let component t =
  Rvi_sim.Clock.component ~name:"imu-rtl"
    ~compute:(fun () -> compute t)
    ~commit:(fun () -> commit t)
    ()

(* Bus-side accessors run in OS context, between clock edges: they act on
   the committed register values directly (asynchronous register file
   port), so both current and pending views are updated. *)

let read_ar t =
  Imu_regs.ar_encode
    ~obj_id:(Bits.to_int (Reg.get t.req_obj))
    ~addr:(Bits.to_int (Reg.get t.req_addr))

let read_sr t =
  Imu_regs.sr_encode
    ~fault:(Bits.equal (Reg.get t.state) st_fault)
    ~fin:(Reg.get t.fin_seen)
    ~busy:(not (Bits.equal (Reg.get t.state) st_idle))
    ~params_done:(Reg.get t.params_done)

let write_cr t word =
  if Imu_regs.test word Imu_regs.cr_reset then begin
    Reg.reset t.state st_idle;
    Reg.reset t.fin_seen false;
    Reg.reset t.prev_fin t.port.Cp_port.cp_fin;
    Reg.reset t.params_done false;
    Reg.reset t.start_pending false;
    Reg.reset t.resume_pending false;
    Reg.reset t.just_resumed false;
    Reg.reset t.fault_key None;
    Reg.reset t.out_start false;
    Reg.reset t.out_tlbhit false;
    t.port.Cp_port.cp_start <- false;
    t.port.Cp_port.cp_tlbhit <- false
  end;
  if Imu_regs.test word Imu_regs.cr_start then Reg.reset t.start_pending true;
  if Imu_regs.test word Imu_regs.cr_resume then Reg.reset t.resume_pending true

let set_param_page t = function
  | Some ppn ->
    Reg.reset t.param_page (Bits.make ~width:t.ppn_w ppn);
    Reg.reset t.param_valid true
  | None -> Reg.reset t.param_valid false

let check_slot t slot =
  if slot < 0 || slot >= Array.length t.slots then
    invalid_arg "Imu_rtl: slot out of range"

let tlb_write t ~slot ~obj_id ~vpn ~ppn =
  check_slot t slot;
  let s = t.slots.(slot) in
  Reg.reset s.valid true;
  Reg.reset s.tag (tag_of t ~obj_id ~vpn);
  Reg.reset s.ppn (Bits.make ~width:t.ppn_w ppn);
  Reg.reset s.dirty false;
  Reg.reset s.referenced false

let tlb_invalidate t ~slot =
  check_slot t slot;
  Reg.reset t.slots.(slot).valid false

let tlb_invalidate_all t =
  Array.iteri (fun slot _ -> tlb_invalidate t ~slot) t.slots

let tlb_dirty t ~slot =
  check_slot t slot;
  Reg.get t.slots.(slot).dirty

let fault t =
  if Bits.equal (Reg.get t.state) st_fault then Reg.get t.fault_key else None

let finished t = Reg.get t.fin_seen
