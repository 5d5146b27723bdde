module Cp_port = Rvi_core.Cp_port

exception Out_of_region of { region : int; addr : int }

(* The one outstanding request is held in flat mutable fields, as in
   [Vport]: [issue] runs once per access of the normal coprocessor, and a
   [request option] would cost a fresh block and a write barrier each
   time. [pending] (issued this cycle) and [inflight] (in the RAM,
   completes at the next sample) are its two stages; at most one is set.
   Region windows sit in arrays indexed by object id, so a lookup boxes
   no option either; an unset region has size -1. *)
type t = {
  dpram : Rvi_mem.Dpram.t;
  region_base : int array;
  region_size : int array;
  mutable params : int array;
  mutable pending : bool;
  mutable inflight : bool;
  mutable req_region : int;
  mutable req_addr : int;
  mutable req_wr : bool;
  mutable req_width : Cp_port.width;
  mutable req_data : int;
  mutable ready_now : bool;
  mutable data_now : int;
  mutable start_req : bool;
  mutable start_now : bool;
  mutable fin : bool;
  mutable on_finish : unit -> unit;
  mutable accesses : int;
}

let create ~dpram =
  {
    dpram;
    region_base = Array.make (Cp_port.max_data_obj + 1) 0;
    region_size = Array.make (Cp_port.max_data_obj + 1) (-1);
    params = [||];
    pending = false;
    inflight = false;
    req_region = 0;
    req_addr = 0;
    req_wr = false;
    req_width = Cp_port.W32;
    req_data = 0;
    ready_now = false;
    data_now = 0;
    start_req = false;
    start_now = false;
    fin = false;
    on_finish = ignore;
    accesses = 0;
  }

let set_region t ~region ~base ~size =
  if base < 0 || size < 0 || base + size > Rvi_mem.Dpram.size t.dpram then
    invalid_arg "Dport.set_region: window outside the dual-port RAM";
  if region < 0 || region > Cp_port.max_data_obj then
    invalid_arg "Dport.set_region: not a data object id";
  t.region_base.(region) <- base;
  t.region_size.(region) <- size

let set_params t params = t.params <- Array.of_list params
let assert_start t = t.start_req <- true
let finished t = t.fin

let out_of_region t =
  raise (Out_of_region { region = t.req_region; addr = t.req_addr })

let perform t =
  let region = t.req_region and addr = t.req_addr in
  if region = Cp_port.param_obj then begin
    let index = addr / 4 in
    if t.req_wr || index < 0 || index >= Array.length t.params then
      out_of_region t;
    t.data_now <- t.params.(index)
  end
  else begin
    if region < 0 || region > Cp_port.max_data_obj then out_of_region t;
    let size = t.region_size.(region) in
    let bytes = Cp_port.width_bytes t.req_width in
    if size < 0 || addr < 0 || addr + bytes > size then out_of_region t;
    let width = Cp_port.width_bits t.req_width in
    let paddr = t.region_base.(region) + addr in
    if t.req_wr then Rvi_mem.Dpram.write t.dpram ~width paddr t.req_data
    else t.data_now <- Rvi_mem.Dpram.read t.dpram ~width paddr
  end

let sample t =
  t.start_now <- t.start_req;
  if t.start_now then begin
    t.start_req <- false;
    t.fin <- false
  end;
  t.ready_now <- false;
  if t.inflight then begin
    perform t;
    t.inflight <- false;
    t.ready_now <- true
  end

let start_seen t = t.start_now
let busy t = t.pending || t.inflight
let ready t = t.ready_now
let data t = t.data_now

(* Unlike the virtual port, a direct port completes requests on the owning
   coprocessor's own ticks, so any queued or in-flight request (or a start
   to latch) makes the next tick do real work. A start or completion
   already consumed is only a level for [sample] to drop, which [settle]
   does. *)
let quiescent t = (not t.start_req) && (not t.pending) && not t.inflight

let settle t =
  t.start_now <- false;
  t.ready_now <- false

let issue t ~region ~addr ~wr ~width ~data =
  assert (not (busy t));
  t.req_region <- region;
  t.req_addr <- addr;
  t.req_wr <- wr;
  t.req_width <- width;
  t.req_data <- data;
  t.pending <- true;
  t.accesses <- t.accesses + 1

let finish t =
  t.fin <- true;
  t.on_finish ()

let set_on_finish t f = t.on_finish <- f

let commit t =
  if t.pending then begin
    t.inflight <- true;
    t.pending <- false
  end

let reset t =
  t.pending <- false;
  t.inflight <- false;
  t.ready_now <- false;
  t.data_now <- 0;
  t.start_req <- false;
  t.start_now <- false;
  t.fin <- false

let accesses t = t.accesses
