type imu_kind = Four_cycle | Pipelined

let imu_kinds = [ ("4-cycle", Four_cycle); ("pipelined", Pipelined) ]
let transfers = [ ("double", Rvi_core.Vim.Double); ("single", Rvi_core.Vim.Single) ]

type t = {
  device : Rvi_fpga.Device.t;
  policy : string;
  transfer : Rvi_core.Vim.transfer_mode;
  prefetch : Rvi_core.Prefetch.t;
  overlap_prefetch : bool;
  copy_engine : Rvi_core.Vim.copy_engine;
  eager_mapping : bool;
  imu_kind : imu_kind;
  tlb_entries : int option;
  tlb_organization : Rvi_core.Tlb.organization;
  translation : Rvi_core.Translation_mode.t;
  seed : int;
  trace : Rvi_obs.Trace.t option;
  injector : Rvi_inject.Injector.t option;
  recovery : Rvi_core.Vim.recovery;
  watchdog : Rvi_sim.Simtime.t;
  exec_retries : int;
}

let default () =
  {
    device = Rvi_fpga.Device.epxa1;
    policy = "fifo";
    transfer = Rvi_core.Vim.Double;
    prefetch = Rvi_core.Prefetch.off;
    overlap_prefetch = false;
    copy_engine = Rvi_core.Vim.Cpu;
    eager_mapping = true;
    imu_kind = Four_cycle;
    tlb_entries = None;
    tlb_organization = Rvi_core.Tlb.Fully_associative;
    translation = Rvi_core.Translation_mode.Paper_objects;
    seed = 42;
    trace = None;
    injector = None;
    recovery = Rvi_core.Vim.default_recovery;
    watchdog = Rvi_sim.Simtime.of_ms 30_000;
    exec_retries = 2;
  }

let n_pages t = t.device.Rvi_fpga.Device.dpram_bytes / t.device.Rvi_fpga.Device.page_size

let imu_config t =
  let tlb_entries = Option.value t.tlb_entries ~default:(n_pages t) in
  {
    (match t.imu_kind with
    | Four_cycle -> Rvi_core.Imu.default_config
    | Pipelined -> Rvi_core.Imu.pipelined_config)
    with
    Rvi_core.Imu.tlb_entries;
    tlb_organization = t.tlb_organization;
    translation = t.translation;
  }

let vim_config t =
  {
    Rvi_core.Vim.policy =
      (match Rvi_core.Policy.of_name ~seed:t.seed t.policy with
      | Some p -> p
      | None -> invalid_arg (Printf.sprintf "Config: unknown policy %S" t.policy));
    transfer = t.transfer;
    prefetch = t.prefetch;
    overlap_prefetch = t.overlap_prefetch;
    copy_engine = t.copy_engine;
    eager_mapping = t.eager_mapping;
    watchdog = t.watchdog;
    injector = t.injector;
    recovery = t.recovery;
  }
