module Clock = Rvi_sim.Clock
module Kernel = Rvi_os.Kernel
module Device = Rvi_fpga.Device

type t = {
  engine : Rvi_sim.Engine.t;
  kernel : Rvi_os.Kernel.t;
  dpram : Rvi_mem.Dpram.t;
  pld : Rvi_fpga.Pld.t;
  port : Rvi_core.Cp_port.t;
  imu : Rvi_core.Imu.t;
  clock : Rvi_sim.Clock.t;
  vim : Rvi_core.Vim.t;
  api : Rvi_core.Api.t;
  vport : Rvi_coproc.Vport.t;
  coproc : Rvi_coproc.Coproc.t;
  proc : Rvi_os.Proc.t;
}

type station = {
  st_port : Rvi_core.Cp_port.t;
  st_imu : Rvi_core.Imu.t;
  st_clock : Clock.t;
  st_vim : Rvi_core.Vim.t;
  st_vport : Rvi_coproc.Vport.t;
  st_coproc : Rvi_coproc.Coproc.t;
}

let station (cfg : Config.t) ~kernel ~dpram ~irq_line ~clock_name ~bitstream
    ~make =
  let port = Rvi_core.Cp_port.create () in
  let imu =
    Rvi_core.Imu.create ~config:(Config.imu_config cfg) ~port ~dpram
      ~raise_irq:(fun () ->
        Rvi_os.Irq.raise_line (Kernel.irq kernel) ~line:irq_line)
      ()
  in
  let clock =
    Clock.create (Kernel.engine kernel) ~name:clock_name
      ~freq_hz:bitstream.Rvi_fpga.Bitstream.imu_freq_hz
  in
  let vim =
    Rvi_core.Vim.create ~irq_line ~kernel ~dpram ~imu
      ~ahb:cfg.Config.device.Device.ahb ~clocks:[ clock ]
      (Config.vim_config cfg)
  in
  let vport, coproc = make port in
  Rvi_core.Vim.set_abort_hook vim (fun () ->
      Rvi_core.Cp_port.reset port;
      Rvi_coproc.Vport.reset vport;
      coproc.Rvi_coproc.Coproc.reset ());
  let divide = bitstream.Rvi_fpga.Bitstream.coproc_divide in
  if divide = 1 then
    (* Everything ticks at the IMU rate: collapse the whole pipeline
       (IMU, bus wrapper, coprocessor) into one slot — identical edge
       order, one dispatch per edge instead of three. *)
    Clock.add clock
      (Rvi_coproc.Vport.fused_component vport ~imu
         coproc.Rvi_coproc.Coproc.component)
  else begin
    Clock.add clock (Rvi_core.Imu.component imu);
    Clock.add clock (Rvi_coproc.Vport.sync_component vport);
    Clock.add clock ~divide coproc.Rvi_coproc.Coproc.component
  end;
  Rvi_core.Imu.set_injector imu cfg.Config.injector;
  {
    st_port = port;
    st_imu = imu;
    st_clock = clock;
    st_vim = vim;
    st_vport = vport;
    st_coproc = coproc;
  }

(* One injector drives every hardware boundary of the platform, so a
   single seed reproduces the whole fault schedule; the IMU's is attached
   by [station]. *)
let attach_injector (cfg : Config.t) ~kernel ~dpram =
  match cfg.Config.injector with
  | Some inj ->
    Rvi_mem.Dpram.set_injector dpram (Some inj);
    Rvi_os.Irq.set_injector (Kernel.irq kernel) (Some inj);
    (match cfg.Config.trace with
    | Some tr ->
      Rvi_inject.Injector.set_observer inj
        (Some
           (fun k ->
             Rvi_obs.Trace.emit tr ~at:(Kernel.now kernel)
               (Rvi_obs.Trace.Inject { fault = Rvi_inject.Fault.name k })))
    | None -> ())
  | None -> ()

let create ?(app_name = "app") ?(sdram_bytes = 4 * 1024 * 1024) (cfg : Config.t)
    ~bitstream ~make =
  let engine = Rvi_sim.Engine.create () in
  let cost =
    Rvi_os.Cost_model.default ~cpu_freq_hz:cfg.Config.device.Device.cpu_freq_hz
  in
  let kernel = Kernel.create ~engine ~cost ~sdram_bytes () in
  (match cfg.Config.trace with
  | Some _ as tr -> Kernel.set_trace kernel tr
  | None -> ());
  let dpram = Rvi_mem.Dpram.create (Device.geometry cfg.Config.device) in
  let pld = Rvi_fpga.Pld.create cfg.Config.device in
  let st =
    station cfg ~kernel ~dpram ~irq_line:0 ~clock_name:"pld" ~bitstream ~make
  in
  attach_injector cfg ~kernel ~dpram;
  let api = Rvi_core.Api.install ~kernel ~vim:st.st_vim ~pld in
  let sched = Kernel.sched kernel in
  let proc = Rvi_os.Sched.spawn sched ~name:app_name in
  ignore (Rvi_os.Sched.schedule sched);
  {
    engine;
    kernel;
    dpram;
    pld;
    port = st.st_port;
    imu = st.st_imu;
    clock = st.st_clock;
    vim = st.st_vim;
    api;
    vport = st.st_vport;
    coproc = st.st_coproc;
    proc;
  }

(* In-place re-arm of a pooled platform: scrub every component back to its
   power-on image (timeline rewound to zero, memories zeroed, counters
   zeroed with hot-path handles kept) and re-attach the per-run bindings
   (trace sink, injector, VIM configuration) exactly as [create] does. The
   contract — asserted by a qcheck property in the test suite — is that a
   run on a reset platform produces a byte-identical report and trace to
   the same run on a freshly created platform. Structure (device geometry,
   bit-stream wiring, registered clock components, spawned process) is
   reused, which is the point: a campaign run stops paying a 4 MB zeroed
   SDRAM allocation plus full platform construction per run. *)
let reset t (cfg : Config.t) =
  if Config.imu_config cfg <> Rvi_core.Imu.config t.imu then
    invalid_arg "Platform.reset: IMU/TLB configuration differs from creation";
  if Device.geometry cfg.Config.device <> Rvi_mem.Dpram.geometry t.dpram then
    invalid_arg "Platform.reset: device geometry differs from creation";
  Rvi_sim.Engine.reset t.engine;
  Clock.reset t.clock;
  Kernel.reset t.kernel;
  Rvi_mem.Dpram.reset t.dpram;
  Rvi_fpga.Pld.reset t.pld;
  Rvi_core.Cp_port.reset t.port;
  Rvi_coproc.Vport.reset t.vport;
  t.coproc.Rvi_coproc.Coproc.reset ();
  (* After the port: the IMU re-latches the quiescent CP_FIN level. *)
  Rvi_core.Imu.reset t.imu;
  Rvi_core.Vim.reset t.vim (Config.vim_config cfg);
  Rvi_core.Api.reset t.api;
  (match cfg.Config.trace with
  | Some _ as tr -> Kernel.set_trace t.kernel tr
  | None -> ());
  (match cfg.Config.injector with
  | Some _ as inj -> Rvi_core.Imu.set_injector t.imu inj
  | None -> ());
  attach_injector cfg ~kernel:t.kernel ~dpram:t.dpram;
  ignore (Rvi_os.Sched.schedule (Kernel.sched t.kernel))

(* A pool of platforms keyed by application name (each application has its
   own bit-stream and coprocessor wiring, so platforms are only
   interchangeable within one key). Never shared across domains: parallel
   campaign shards each hold their own pool in domain-local storage.

   Crash discipline: [acquire] removes the platform from the pool and
   [stash] puts it back, so a run that raises leaves the (possibly wedged)
   platform out of the pool for good — the next run simply builds a fresh
   one. *)
module Pool = struct
  type platform = t
  type t = (string, platform) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let size (pool : t) = Hashtbl.length pool

  let acquire (pool : t) ~key cfg ~create:make_fresh =
    match Hashtbl.find_opt pool key with
    | Some p -> (
      Hashtbl.remove pool key;
      (* A platform that cannot be re-armed (e.g. its process exited) is
         dropped; falling back to construction keeps pooled behaviour a
         strict refinement of the fresh path. *)
      match reset p cfg with
      | () -> p
      | exception _ -> make_fresh ())
    | None -> make_fresh ()

  let stash (pool : t) ~key p = Hashtbl.replace pool key p
  let find (pool : t) ~key = Hashtbl.find_opt pool key
  let clear (pool : t) = Hashtbl.reset pool
end

let alloc t n = Rvi_os.Uspace.alloc t.kernel n
let alloc_bytes t b = Rvi_os.Uspace.of_bytes t.kernel b
let read t buf = Rvi_os.Uspace.read t.kernel buf

let trace t =
  let wave = Rvi_hw.Wave.create () in
  Rvi_hw.Wave.add_signal wave ~name:"clk" ~width:1 (fun () -> 1);
  Rvi_core.Cp_port.probe t.port wave;
  Rvi_hw.Wave.attach wave t.clock;
  wave
