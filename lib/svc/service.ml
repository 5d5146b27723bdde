(* The multi-tenant coprocessor service.

   One physical platform — kernel, PLD, dual-port RAM — with a station
   per application kind of the {!Rvi_harness.Jobs} registry (own IMU,
   clock domain, VIM on a dedicated interrupt line, wired by
   [Platform.station]), driven through [Vim]'s sliced-execution API:
   requests arrive on per-tenant submission rings, a pluggable policy
   picks the next candidate, and under the preemptive policy a running
   tenant can be parked mid-execution ([exec_preempt]) and resumed later
   ([exec_resume]) with no observable difference in its output.

   Single-PLD discipline: only the dispatched station's clock runs, so
   simulated time advances only inside the active tenant's quantum. At
   most one parked context per station (a station's parked tenant must
   resume before fresh work of that kind), bounding preempted state to
   one full dual-port-RAM image per kind. *)

module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Clock = Rvi_sim.Clock
module Kernel = Rvi_os.Kernel
module Uspace = Rvi_os.Uspace
module Accounting = Rvi_os.Accounting
module Cost_model = Rvi_os.Cost_model
module Device = Rvi_fpga.Device
module Pld = Rvi_fpga.Pld
module Vim = Rvi_core.Vim
module Mapped_object = Rvi_core.Mapped_object
module Config = Rvi_harness.Config
module Jobs = Rvi_harness.Jobs

(* A request's recipe with its user buffers allocated: the service
   verifies, retries and falls back around the sliced execution. *)
type prepared = {
  p_params : int list;
  p_objects : Mapped_object.t list;
  p_out : Uspace.buf;
  p_expected : Bytes.t Lazy.t;
}

let prepare kernel kind ~seed ~bytes =
  let r = Jobs.recipe (Jobs.generate kind ~seed ~bytes) in
  let bufs = Jobs.alloc kernel r.Jobs.objects in
  {
    p_params = r.Jobs.params;
    p_objects =
      List.map
        (fun ((o : Jobs.obj), buf) ->
          Mapped_object.make ~id:o.id ~buf ~dir:o.dir ~stream:o.stream ())
        bufs;
    p_out = snd (List.find (fun ((o : Jobs.obj), _) -> o.id = r.Jobs.out_id) bufs);
    p_expected = r.Jobs.expected;
  }

type inflight = {
  i_req : Tenant.request;
  i_enq_seq : int;
  i_prep : prepared;
  i_started_at : Simtime.t;
  mutable i_preemptions : int;
  mutable i_retries : int;
}

type station = {
  st_index : int;
  st_kind : Jobs.app_kind;
  st_bitstream : Rvi_fpga.Bitstream.t;
  st_vim : Vim.t;
  st_proc : Rvi_os.Proc.t;
  st_queue : (Tenant.request * int) Queue.t;
  mutable st_parked : (inflight * Vim.context) option;
}

type params = {
  sp_policy : Sched_policy.t;
  sp_quantum : Simtime.t;
  sp_sdram_bytes : int;
  sp_backlog_limit : int;
  sp_aging : Simtime.t;
  sp_starvation_budget : Simtime.t;
}

let default_params policy =
  {
    sp_policy = policy;
    sp_quantum = Simtime.of_us 50;
    sp_sdram_bytes = 16 * 1024 * 1024;
    sp_backlog_limit = 4096;
    sp_aging = Simtime.of_ms 50;
    sp_starvation_budget = Simtime.of_ms 2_000;
  }

type feed = {
  f_next_arrival : unit -> Simtime.t option;
      (* earliest pending open-loop arrival, for idle fast-forward *)
  f_deliver : now:Simtime.t -> unit;
      (* move every arrival due at [now] onto its tenant's ring *)
  f_notify : Tenant.completion -> now:Simtime.t -> unit;
}

let null_feed =
  {
    f_next_arrival = (fun () -> None);
    f_deliver = (fun ~now:_ -> ());
    f_notify = (fun _ ~now:_ -> ());
  }

type t = {
  cfg : Config.t;
  params : params;
  kernel : Kernel.t;
  engine : Engine.t;
  pld : Pld.t;
  stations : station array;
  tenants : Tenant.t array;
  quantum_us : float;
  reconfig_bias_us : float;
  age_limit_us : float;
  mutable feed : feed;
  mutable enq_seq : int;
  mutable backlog : int;
  mutable parked_count : int;
  mutable completions : int;
  mutable reconfigurations : int;
  mutable configuration_time : Simtime.t;
  mutable preemptions : int;
  mutable resumes : int;
  mutable force_drain : bool;
  mutable starved : int list;
  mutable inconsistencies : string list;
  mutable exhausted : bool;
}

let make_station (cfg : Config.t) ~kernel ~dpram kind =
  let bitstream = Jobs.bitstream kind in
  let st =
    Rvi_harness.Platform.station cfg ~kernel ~dpram ~irq_line:(Jobs.index kind)
      ~clock_name:(Jobs.app_name kind ^ "-pld")
      ~bitstream ~make:(Jobs.make_virtual kind)
  in
  let proc =
    Rvi_os.Sched.spawn (Kernel.sched kernel) ~name:(Jobs.app_name kind ^ "-svc")
  in
  {
    st_index = Jobs.index kind;
    st_kind = kind;
    st_bitstream = bitstream;
    st_vim = st.Rvi_harness.Platform.st_vim;
    st_proc = proc;
    st_queue = Queue.create ();
    st_parked = None;
  }

let create (cfg : Config.t) (params : params) ~tenants =
  if Simtime.compare params.sp_quantum Simtime.zero <= 0 then
    invalid_arg "Service.create: quantum must be positive";
  let engine = Engine.create () in
  let cost = Cost_model.default ~cpu_freq_hz:cfg.Config.device.Device.cpu_freq_hz in
  let kernel =
    Kernel.create ~engine ~cost ~sdram_bytes:params.sp_sdram_bytes ()
  in
  (match cfg.Config.trace with
  | Some _ as tr -> Kernel.set_trace kernel tr
  | None -> ());
  let dpram = Rvi_mem.Dpram.create (Device.geometry cfg.Config.device) in
  let pld = Pld.create cfg.Config.device in
  (match cfg.Config.injector with
  | Some inj ->
    Rvi_mem.Dpram.set_injector dpram (Some inj);
    Rvi_os.Irq.set_injector (Kernel.irq kernel) (Some inj)
  | None -> ());
  let stations =
    Array.of_list (List.map (make_station cfg ~kernel ~dpram) Jobs.all)
  in
  ignore (Rvi_os.Sched.schedule (Kernel.sched kernel));
  let cpu_hz = float_of_int cfg.Config.device.Device.cpu_freq_hz in
  {
    cfg;
    params;
    kernel;
    engine;
    pld;
    stations;
    tenants;
    quantum_us = float_of_int (Simtime.to_ps params.sp_quantum) /. 1e6;
    reconfig_bias_us =
      float_of_int cost.Cost_model.configure_pld /. cpu_hz *. 1e6;
    age_limit_us = float_of_int (Simtime.to_ps params.sp_aging) /. 1e6;
    feed = null_feed;
    enq_seq = 0;
    backlog = 0;
    parked_count = 0;
    completions = 0;
    reconfigurations = 0;
    configuration_time = Simtime.zero;
    preemptions = 0;
    resumes = 0;
    force_drain = false;
    starved = [];
    inconsistencies = [];
    exhausted = false;
  }

let vim_of_kind t kind = t.stations.(Jobs.index kind).st_vim
let kernel t = t.kernel
let tenants t = t.tenants

(* {2 Queues and candidates} *)

let drain t =
  Array.iter
    (fun (tn : Tenant.t) ->
      let rec go () =
        if t.backlog < t.params.sp_backlog_limit then
          match Ring.pop tn.Tenant.sq with
          | Some (req : Tenant.request) ->
            let st = t.stations.(Jobs.index req.Tenant.kind) in
            Queue.add (req, t.enq_seq) st.st_queue;
            t.enq_seq <- t.enq_seq + 1;
            t.backlog <- t.backlog + 1;
            go ()
          | None -> ()
      in
      go ())
    t.tenants

let age_us t (req : Tenant.request) =
  float_of_int
    (Simtime.to_ps (Kernel.now t.kernel) - Simtime.to_ps req.Tenant.submitted_at)
  /. 1e6

let candidate_of t st : Sched_policy.candidate option =
  match st.st_parked with
  | Some (infl, _) ->
    let tn = t.tenants.(infl.i_req.Tenant.tenant) in
    Some
      {
        Sched_policy.c_station = st.st_index;
        c_kind = st.st_kind;
        c_tenant = tn.Tenant.id;
        c_vtime = tn.Tenant.vtime;
        c_seq = infl.i_enq_seq;
        c_age_us = age_us t infl.i_req;
        c_parked = true;
      }
  | None ->
    if t.force_drain then None
    else
      Option.map
        (fun ((req : Tenant.request), seq) ->
          let tn = t.tenants.(req.Tenant.tenant) in
          {
            Sched_policy.c_station = st.st_index;
            c_kind = st.st_kind;
            c_tenant = tn.Tenant.id;
            c_vtime = tn.Tenant.vtime;
            c_seq = seq;
            c_age_us = age_us t req;
            c_parked = false;
          })
        (Queue.peek_opt st.st_queue)

let candidates t =
  Array.to_list t.stations |> List.filter_map (candidate_of t)

let loaded_kind t =
  match Pld.loaded t.pld with
  | None -> None
  | Some bs ->
    Array.to_list t.stations
    |> List.find_opt (fun st -> st.st_bitstream = bs)
    |> Option.map (fun st -> st.st_kind)

let ensure_configured t st =
  if Pld.loaded t.pld <> Some st.st_bitstream then begin
    (match Pld.owner t.pld with
    | Some owner -> (
      match Pld.release t.pld ~pid:owner with
      | Ok () -> ()
      | Error _ -> failwith "Service: PLD release failed")
    | None -> ());
    let t_cfg = Kernel.now t.kernel in
    Kernel.charge t.kernel Accounting.Sw_os
      ~cycles:(Kernel.cost t.kernel).Cost_model.configure_pld;
    (match Pld.configure t.pld ~pid:st.st_proc.Rvi_os.Proc.pid st.st_bitstream with
    | Ok () -> ()
    | Error e -> failwith ("Service: " ^ Pld.error_to_string e));
    t.configuration_time <-
      Simtime.add t.configuration_time (Simtime.sub (Kernel.now t.kernel) t_cfg);
    t.reconfigurations <- t.reconfigurations + 1
  end

let bind_objects st (prep : prepared) =
  let vim = st.st_vim in
  Vim.unmap_all vim;
  List.iter
    (fun (o : Mapped_object.t) ->
      let r =
        match Vim.translation vim with
        | Rvi_core.Translation_mode.Paper_objects -> Vim.map_object vim o
        | Rvi_core.Translation_mode.Iommu_sva ->
          Vim.sva_note_object vim ~id:o.Mapped_object.id
            ~base:o.Mapped_object.buf.Uspace.addr
      in
      match r with
      | Ok () -> ()
      | Error m -> failwith ("Service: map failed: " ^ m))
    prep.p_objects

(* {2 Starvation and arena bookkeeping} *)

let check_starvation t =
  let now_ps = Simtime.to_ps (Kernel.now t.kernel) in
  let budget_ps = Simtime.to_ps t.params.sp_starvation_budget in
  Array.iter
    (fun (tn : Tenant.t) ->
      if
        (not tn.Tenant.starved)
        && tn.Tenant.pending > 0
        && now_ps - Simtime.to_ps tn.Tenant.last_progress > budget_ps
      then begin
        tn.Tenant.starved <- true;
        t.starved <- tn.Tenant.id :: t.starved
      end)
    t.tenants

let mark_pending_starved t =
  Array.iter
    (fun (tn : Tenant.t) ->
      if (not tn.Tenant.starved) && tn.Tenant.pending > 0 then begin
        tn.Tenant.starved <- true;
        t.starved <- tn.Tenant.id :: t.starved
      end)
    t.tenants

let maybe_recycle_arena t =
  let sdram = Kernel.sdram t.kernel in
  if t.parked_count = 0 then begin
    if Rvi_mem.Sdram.used sdram > 0 then Rvi_mem.Sdram.release_all sdram;
    t.force_drain <- false
  end
  else if Rvi_mem.Sdram.used sdram > t.params.sp_sdram_bytes / 2 then
    (* Parked contexts pin their user buffers; run them to completion
       before the bump allocator wraps into live data. *)
    t.force_drain <- true

(* {2 The dispatch machine} *)

let charge_vtime t (infl : inflight) ~slice_start =
  let tn = t.tenants.(infl.i_req.Tenant.tenant) in
  let served_us =
    float_of_int (Simtime.to_ps (Kernel.now t.kernel) - Simtime.to_ps slice_start)
    /. 1e6
  in
  tn.Tenant.vtime <- tn.Tenant.vtime +. (served_us /. float_of_int tn.Tenant.weight)

let should_preempt t (infl : inflight) =
  (not t.force_drain)
  && Sched_policy.preemptive t.params.sp_policy
  &&
  let cur = t.tenants.(infl.i_req.Tenant.tenant) in
  List.exists
    (fun (c : Sched_policy.candidate) ->
      c.Sched_policy.c_vtime +. t.quantum_us < cur.Tenant.vtime)
    (candidates t)

let rec pump_loop t st infl session =
  let slice_start = Kernel.now t.kernel in
  let until = Simtime.add slice_start t.params.sp_quantum in
  let r = Vim.exec_pump st.st_vim session ~until in
  charge_vtime t infl ~slice_start;
  match r with
  | `Done result -> finish_exec t st infl result
  | `Running ->
    t.feed.f_deliver ~now:(Kernel.now t.kernel);
    drain t;
    if should_preempt t infl then begin
      let ctx = Vim.exec_preempt st.st_vim session in
      infl.i_preemptions <- infl.i_preemptions + 1;
      t.preemptions <- t.preemptions + 1;
      st.st_parked <- Some (infl, ctx);
      t.parked_count <- t.parked_count + 1
    end
    else pump_loop t st infl session

and finish_exec t st infl result =
  let verified =
    match result with
    | Ok () ->
      Bytes.equal (Uspace.read t.kernel infl.i_prep.p_out)
        (Lazy.force infl.i_prep.p_expected)
    | Error _ -> false
  in
  if verified then
    record t st infl
      (if infl.i_retries = 0 then Tenant.Clean
       else Tenant.Recovered infl.i_retries)
  else
    let retryable =
      match result with
      | Error e -> Vim.classify e = Vim.Transient
      | Ok () -> true (* wrong output: environmental, a clean rerun may pass *)
    in
    if retryable && infl.i_retries < t.cfg.Config.exec_retries then begin
      infl.i_retries <- infl.i_retries + 1;
      bind_objects st infl.i_prep;
      match
        Vim.exec_start ~page_table:st.st_proc.Rvi_os.Proc.page_table st.st_vim
          ~params:infl.i_prep.p_params
      with
      | Ok session -> pump_loop t st infl session
      | Error _ -> fallback t st infl
    end
    else fallback t st infl

and fallback t st infl =
  (* Verified-by-construction software path: the host reference already
     computed the answer, deliver it and mark the request degraded. *)
  Uspace.write t.kernel infl.i_prep.p_out (Lazy.force infl.i_prep.p_expected);
  record t st infl Tenant.Degraded

and record t st infl status =
  let now = Kernel.now t.kernel in
  let req = infl.i_req in
  let tn = t.tenants.(req.Tenant.tenant) in
  let c =
    {
      Tenant.c_rid = req.Tenant.rid;
      c_tenant = req.Tenant.tenant;
      c_kind = req.Tenant.kind;
      c_status = status;
      c_preemptions = infl.i_preemptions;
      c_retries = infl.i_retries;
      c_submitted_at = req.Tenant.submitted_at;
      c_started_at = infl.i_started_at;
      c_finished_at = now;
    }
  in
  Tenant.complete tn c;
  t.completions <- t.completions + 1;
  (match Vim.consistency st.st_vim with
  | Ok () -> ()
  | Error m ->
    t.inconsistencies <-
      Printf.sprintf "rid %d (%s, tenant %d): %s" req.Tenant.rid
        (Jobs.app_name req.Tenant.kind) req.Tenant.tenant m
      :: t.inconsistencies);
  t.feed.f_notify c ~now;
  t.feed.f_deliver ~now;
  drain t;
  maybe_recycle_arena t;
  if t.completions land 63 = 0 then check_starvation t

let dispatch t st (cand : Sched_policy.candidate) =
  ensure_configured t st;
  if cand.Sched_policy.c_parked then begin
    match st.st_parked with
    | Some (infl, ctx) ->
      st.st_parked <- None;
      t.parked_count <- t.parked_count - 1;
      t.resumes <- t.resumes + 1;
      let session = Vim.exec_resume st.st_vim ctx in
      pump_loop t st infl session
    | None -> assert false
  end
  else begin
    let req, seq = Queue.pop st.st_queue in
    t.backlog <- t.backlog - 1;
    let tn = t.tenants.(req.Tenant.tenant) in
    tn.Tenant.last_progress <- Kernel.now t.kernel;
    let prep =
      prepare t.kernel req.Tenant.kind ~seed:req.Tenant.seed
        ~bytes:req.Tenant.bytes
    in
    bind_objects st prep;
    let infl =
      {
        i_req = req;
        i_enq_seq = seq;
        i_prep = prep;
        i_started_at = Kernel.now t.kernel;
        i_preemptions = 0;
        i_retries = 0;
      }
    in
    match
      Vim.exec_start ~page_table:st.st_proc.Rvi_os.Proc.page_table st.st_vim
        ~params:prep.p_params
    with
    | Ok session -> pump_loop t st infl session
    | Error _ -> fallback t st infl
  end

(* {2 The service loop} *)

type outcome = {
  o_completed : int;
  o_makespan : Simtime.t;
  o_reconfigurations : int;
  o_configuration_time : Simtime.t;
  o_preemptions : int;
  o_resumes : int;
  o_starved : int list;
  o_inconsistencies : string list;
  o_exhausted : bool;
}

let run t feed ~expect =
  t.feed <- feed;
  let t0 = Kernel.now t.kernel in
  (* Liveness backstop. A hung execution is resumed and preempted once
     per quantum until its watchdog fires, so a single attempt can
     legitimately consume watchdog/quantum dispatch iterations; size the
     budget for every request exhausting its full retry ladder that way
     before calling the service wedged. *)
  let budget =
    let per_attempt =
      2
      + Simtime.to_ps t.cfg.Config.watchdog
        / max 1 (Simtime.to_ps t.params.sp_quantum)
    in
    1000 + (100 * max 1 expect)
    + (max 1 expect * (1 + t.cfg.Config.exec_retries) * per_attempt)
  in
  let iters = ref 0 in
  feed.f_deliver ~now:t0;
  drain t;
  let rec loop () =
    if !iters >= budget then t.exhausted <- true
    else begin
      incr iters;
      match
        Sched_policy.select t.params.sp_policy ~loaded:(loaded_kind t)
          ~reconfig_bias_us:t.reconfig_bias_us ~age_limit_us:t.age_limit_us
          (candidates t)
      with
      | Some cand ->
        dispatch t t.stations.(cand.Sched_policy.c_station) cand;
        loop ()
      | None ->
        if t.force_drain then begin
          (* every parked context drained; safe to recycle *)
          t.force_drain <- false;
          maybe_recycle_arena t;
          loop ()
        end
        else begin
          match feed.f_next_arrival () with
          | Some at ->
            let now = Kernel.now t.kernel in
            let target = if Simtime.compare at now > 0 then at else now in
            (* idle fast-forward to the next open-loop arrival — the
               engine advances its clock even with an empty queue *)
            Engine.run_until t.engine target;
            feed.f_deliver ~now:(Kernel.now t.kernel);
            drain t;
            check_starvation t;
            loop ()
          | None -> ()
        end
    end
  in
  loop ();
  check_starvation t;
  if t.exhausted then mark_pending_starved t;
  t.feed <- null_feed;
  {
    o_completed = t.completions;
    o_makespan = Simtime.sub (Kernel.now t.kernel) t0;
    o_reconfigurations = t.reconfigurations;
    o_configuration_time = t.configuration_time;
    o_preemptions = t.preemptions;
    o_resumes = t.resumes;
    o_starved = List.sort compare t.starved;
    o_inconsistencies = List.rev t.inconsistencies;
    o_exhausted = t.exhausted;
  }
