module Cp_port = Rvi_core.Cp_port

(* The bus side of the wrapper lives in the IMU clock domain
   ([sync_component]): requests leave as single-cycle CP_ACCESS pulses at
   the IMU rate and the IMU's single-cycle response pulses are latched
   into sticky flags, which the (possibly slower) coprocessor consumes at
   its own rate.

   The posted request is held in flat mutable fields guarded by
   [pending_valid] rather than a [request option]: [issue] runs once per
   coprocessor access on the campaign hot path, and an option-of-record
   costs a fresh heap block per access where the flat fields cost
   stores. *)
type t = {
  port : Cp_port.t;
  region_offset : int; (* added to every data-object id at issue *)
  (* posted by the coprocessor; fields meaningful iff [pending_valid] *)
  mutable pending_valid : bool;
  mutable pend_region : int;
  mutable pend_addr : int;
  mutable pend_wr : bool;
  mutable pend_width : Cp_port.width;
  mutable pend_data : int;
  mutable waiting : bool; (* pulse sent, response not yet consumed *)
  mutable resp_valid : bool;
  mutable resp_data : int;
  mutable start_flag : bool;
  (* values latched for the coprocessor's current compute cycle *)
  mutable hit_now : bool;
  mutable data_now : int;
  mutable start_now : bool;
  mutable fin_req : bool;
  mutable accesses : int;
}

let create ?(region_offset = 0) port =
  {
    port;
    region_offset;
    pending_valid = false;
    pend_region = 0;
    pend_addr = 0;
    pend_wr = false;
    pend_width = Cp_port.W32;
    pend_data = 0;
    waiting = false;
    resp_valid = false;
    resp_data = 0;
    start_flag = false;
    hit_now = false;
    data_now = 0;
    start_now = false;
    fin_req = false;
    accesses = 0;
  }

let sync_compute t =
  if t.port.Cp_port.cp_start then t.start_flag <- true;
  if t.waiting && t.port.Cp_port.cp_tlbhit then begin
    t.resp_valid <- true;
    t.resp_data <- t.port.Cp_port.cp_din
  end

let sync_commit t =
  let p = t.port in
  if t.pending_valid && not t.waiting then begin
    p.Cp_port.cp_obj <- t.pend_region;
    p.Cp_port.cp_addr <- t.pend_addr;
    p.Cp_port.cp_wr <- t.pend_wr;
    p.Cp_port.cp_width <- t.pend_width;
    p.Cp_port.cp_dout <- t.pend_data;
    p.Cp_port.cp_access <- true;
    t.pending_valid <- false;
    t.waiting <- true
  end
  else p.Cp_port.cp_access <- false;
  p.Cp_port.cp_fin <- t.fin_req

(* The sync tick is a no-op iff there is no IMU pulse to latch, no posted
   request to move onto the bus, and the committed bus outputs already
   equal what [sync_commit] would drive ([cp_access] low, [cp_fin] equal
   to the requested level). State changes only arrive through the IMU or
   the coprocessor ticking — both end an idle-skip window themselves — so
   a quiescent sync stays quiescent until then. *)
let sync_idle t =
  let p = t.port in
  if p.Cp_port.cp_start || (t.waiting && p.Cp_port.cp_tlbhit) then 0
  else if t.pending_valid then 0
  else if p.Cp_port.cp_access then 0
  else if p.Cp_port.cp_fin <> t.fin_req then 0
  else max_int

let sync_component t =
  Rvi_sim.Clock.component ~name:"vport-sync"
    ~idle_hint:(fun () -> sync_idle t)
    ~skip:(fun _ -> ())
    ~compute:(fun () -> sync_compute t)
    ~commit:(fun () -> sync_commit t)
    ()

(* IMU, sync stage and coprocessor share one component: compute = imu;
   sync_compute; coproc.compute and commit likewise, the exact call order
   of the three separate slots ([Imu.component], [sync_component], the
   coprocessor through [Clock.divided]) on the reference stepper. The
   coprocessor half runs on its enabled edges only, and the hint and skip
   convert between its own ticks and the clock's edges, through the same
   [Clock] divide arithmetic [Clock.divided] uses, called directly here
   so the station's per-edge path makes no extra closure call.

   When the synchroniser drives the IMU's own port (every platform
   station; not a multi-coprocessor arbiter, which sits between the two),
   the hint also offers [Imu.fold_window]: a TLB-hit access's latch,
   CAM-wait and access edges are bookkeeping for all three parts — the
   sync stage only drops CP_ACCESS on the latch edge, and the
   coprocessor, waiting for the response, only settles its port — so
   [skip] applies them and the access costs one executed edge, the one
   on which the coprocessor samples CP_TLBHIT. *)
let fused_component t ~imu ~clock ~divide (coproc : Rvi_sim.Clock.component) =
  let module Clock = Rvi_sim.Clock in
  let module Imu = Rvi_core.Imu in
  let d = Clock.divider divide in
  let name = "imu+" ^ coproc.Clock.name ^ "+vport-sync" in
  let ccompute = coproc.Clock.compute in
  let ccommit = coproc.Clock.commit in
  let p = t.port in
  let own = p == Imu.port imu in
  let compute () =
    Imu.compute imu;
    sync_compute t;
    if Clock.enabled clock d then ccompute ()
  in
  let commit () =
    Imu.commit imu;
    sync_commit t;
    if Clock.enabled clock d then ccommit ()
  in
  match (coproc.Clock.idle_hint, coproc.Clock.skip) with
  | Some chint, Some cskip ->
    Clock.component ~name
      ~idle_hint:(fun () ->
        (* min of the three hints, in slot order, bailing at the first
           zero — identical window to the separate slots, or the IMU's
           fold window with the sync stage settled (no posted request,
           CP_FIN at its requested level). *)
        let f = if own then Imu.fold_window imu else 0 in
        let hi =
          if f > 0 then
            if t.pending_valid || p.Cp_port.cp_fin <> t.fin_req then 0 else f
          else
            let hi = Imu.idle_hint imu in
            if hi <= 0 || sync_idle t = 0 then 0 else hi
        in
        if hi <= 0 then 0
        else
          let hc = chint () in
          let hc =
            if divide = 1 then hc else Clock.edges_of_ticks clock d hc
          in
          if hc < hi then hc else hi)
      ~skip:(fun k ->
        let n = if divide = 1 then k else Clock.ticks_of_edges clock d k in
        if own && p.Cp_port.cp_access then begin
          (* a folded latch edge: the IMU latches the request, then the
             sync stage's commit drops CP_ACCESS *)
          Imu.fold imu 1;
          p.Cp_port.cp_access <- false;
          Imu.fold imu (k - 1)
        end
        else Imu.fold imu k;
        if n > 0 then cskip n)
      ~compute ~commit ()
  | _ -> Clock.component ~name ~compute ~commit ()

let sample t =
  t.start_now <- t.start_flag;
  t.start_flag <- false;
  if t.start_now then t.fin_req <- false;
  t.hit_now <- t.resp_valid;
  if t.hit_now then begin
    t.data_now <- t.resp_data;
    t.resp_valid <- false;
    t.waiting <- false
  end

let start_seen t = t.start_now
let busy t = t.pending_valid || t.waiting
let ready t = t.hit_now
let data t = t.data_now

(* [sample] does real work only when a latched start or response is
   waiting to be consumed. A consumed one still high is only a level for
   the next [sample] to drop, which [settle] does, so it does not end the
   window. A request merely in flight ([waiting]) keeps the coprocessor
   quiescent — the response arrives through IMU/sync activity, which is
   itself visible to the idle-skip window. *)
let quiescent t = (not t.start_flag) && not t.resp_valid

let settle t =
  t.start_now <- false;
  t.hit_now <- false

let issue t ~region ~addr ~wr ~width ~data =
  assert (not (busy t));
  t.pend_region <-
    (if region = Cp_port.param_obj then region else region + t.region_offset);
  t.pend_addr <- addr;
  t.pend_wr <- wr;
  t.pend_width <- width;
  t.pend_data <- data;
  t.pending_valid <- true;
  t.accesses <- t.accesses + 1

let finish t = t.fin_req <- true

let reset t =
  t.pending_valid <- false;
  t.waiting <- false;
  t.resp_valid <- false;
  t.resp_data <- 0;
  t.start_flag <- false;
  t.hit_now <- false;
  t.data_now <- 0;
  t.start_now <- false;
  t.fin_req <- false

let accesses t = t.accesses
