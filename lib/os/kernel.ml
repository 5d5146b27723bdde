type t = {
  engine : Rvi_sim.Engine.t;
  cost : Cost_model.t;
  acct : Accounting.t;
  irq : Irq.t;
  sched : Sched.t;
  sdram : Rvi_mem.Sdram.t;
  syscalls : Syscall.t;
  stats : Rvi_sim.Stats.t;
  mutable trace : Rvi_obs.Trace.t option;
}

(* One released SDRAM arena per domain. A service builds a kernel with a
   16 MB arena per cell; left to the GC, a finished cell's arena can still
   be resident when the next cell allocates its own, so the peak resident
   set would hold one or two arenas depending on where the major cycles
   fall. *)
let spare = Domain.DLS.new_key (fun () -> None)

let sdram_of_size size =
  match Domain.DLS.get spare with
  | Some s when Rvi_mem.Sdram.size s = size ->
    Domain.DLS.set spare None;
    Rvi_mem.Ram.fill (Rvi_mem.Sdram.raw s) ~pos:0 ~len:size '\000';
    Rvi_mem.Sdram.release_all s;
    s
  | _ -> Rvi_mem.Sdram.create ~size

let release t = Domain.DLS.set spare (Some t.sdram)

let create ~engine ~cost ?(sdram_bytes = 64 * 1024 * 1024) () =
  let irq = Irq.create () in
  (* An interrupt turning pending must end any inline-batched clock run so
     the execution loop re-checks its wait condition at the raising edge. *)
  Irq.set_wake irq (Some (fun () -> Rvi_sim.Engine.request_break engine));
  {
    engine;
    cost;
    acct = Accounting.create ();
    irq;
    sched = Sched.create ();
    sdram = sdram_of_size sdram_bytes;
    syscalls = Syscall.create ();
    stats = Rvi_sim.Stats.create ();
    trace = None;
  }

let engine t = t.engine
let cost t = t.cost
let accounting t = t.acct
let irq t = t.irq
let sched t = t.sched
let sdram t = t.sdram
let syscalls t = t.syscalls
let stats t = t.stats
let now t = Rvi_sim.Engine.now t.engine
let trace t = t.trace

let set_trace t tr =
  t.trace <- tr;
  (* Interrupt arrivals are hardware events (the IMU raising its line);
     timestamp them as they happen, not when the CPU gets around to the
     handler. *)
  Irq.set_observer t.irq
    (match tr with
    | None -> None
    | Some tr ->
      Some
        (fun ~line ~name ->
          Rvi_obs.Trace.emit tr ~at:(now t) (Rvi_obs.Trace.Irq_raise { line; name })))

(* Platform pooling: scrub all run state — accounting ledger, IRQ pending
   lines, scheduler bookkeeping, the SDRAM arena (zeroed back to the fresh
   image), syscall/interrupt counters and the trace binding. The syscall
   table and IRQ handler registrations are structure and stay. *)
let reset t =
  Accounting.reset t.acct;
  Irq.reset t.irq;
  Sched.reset t.sched;
  Rvi_mem.Sdram.reset t.sdram;
  Rvi_sim.Stats.reset t.stats;
  set_trace t None

let charge_time t cat d =
  Accounting.add t.acct cat d;
  Rvi_sim.Engine.advance t.engine d

let charge t cat ~cycles =
  charge_time t cat (Cost_model.time_of_cycles t.cost cycles)

let syscall t ~number args =
  Rvi_sim.Stats.incr t.stats "syscalls";
  charge t Accounting.Sw_os ~cycles:t.cost.Cost_model.syscall_entry;
  let r = Syscall.dispatch t.syscalls ~number args in
  charge t Accounting.Sw_os ~cycles:t.cost.Cost_model.syscall_exit;
  r

let service_interrupts t =
  let serviced = ref 0 in
  while Irq.any_pending t.irq do
    let t0 = now t in
    charge t Accounting.Sw_imu ~cycles:t.cost.Cost_model.irq_entry;
    if Irq.dispatch_one t.irq then incr serviced;
    charge t Accounting.Sw_imu ~cycles:t.cost.Cost_model.irq_exit;
    match t.trace with
    | Some tr ->
      Rvi_obs.Trace.emit tr ~at:t0
        ~dur:(Rvi_sim.Simtime.sub (now t) t0)
        Rvi_obs.Trace.Irq_service
    | None -> ()
  done;
  if !serviced > 0 then Rvi_sim.Stats.incr t.stats ~by:!serviced "interrupts";
  !serviced
