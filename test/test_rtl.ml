(* Equivalence checking between the behavioural IMU and its RTL
   refinement: both machines run the same random access scripts in
   lockstep on one clock, with the test playing the operating system for
   both sides on faults. Port behaviour must match cycle for cycle and
   the memory and dirty-bit effects must be identical at the end. *)

module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Clock = Rvi_sim.Clock
module Cp_port = Rvi_core.Cp_port
module Imu = Rvi_core.Imu
module Imu_rtl = Rvi_core.Imu_rtl
module Tlb = Rvi_core.Tlb
module Workload = Rvi_harness.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type side = {
  dpram : Rvi_mem.Dpram.t;
  port : Cp_port.t;
  vport : Rvi_coproc.Vport.t;
  irq : bool ref;
  finished : unit -> bool;
  fault : unit -> (int * int) option;
  install : slot:int -> obj_id:int -> vpn:int -> ppn:int -> unit;
  resume : unit -> unit;
  start : unit -> unit;
  dirty : slot:int -> bool;
  read_sr : unit -> int;
  read_ar : unit -> int;
}

let geom = Rvi_fpga.Device.geometry Rvi_fpga.Device.epxa1

module SC = Test_vim.Script_coproc

let preload dpram seed =
  (* Same pseudo-random initial contents on both sides. *)
  for page = 0 to Rvi_mem.Dpram.n_pages dpram - 1 do
    let data = Workload.random_bytes ~seed:(seed + page) ~n:2048 in
    Rvi_mem.Dpram.load_page dpram ~page data ~src:0 ~len:2048
  done

let make_behavioural clock script seed =
  let dpram = Rvi_mem.Dpram.create geom in
  preload dpram seed;
  let port = Cp_port.create () in
  let irq = ref false in
  let imu = Imu.create ~port ~dpram ~raise_irq:(fun () -> irq := true) () in
  let vport = Rvi_coproc.Vport.create port in
  let m, coproc = SC.create (Rvi_coproc.Mem_port.Virtual vport) script in
  ignore m;
  Clock.add clock (Imu.component imu);
  Clock.add clock (Rvi_coproc.Vport.sync_component vport);
  Clock.add clock coproc.Rvi_coproc.Coproc.component;
  Imu.set_param_page imu (Some 0);
  {
    dpram;
    port;
    vport;
    irq;
    finished = (fun () -> Imu.finished imu);
    fault = (fun () -> Imu.fault imu);
    install =
      (fun ~slot ~obj_id ~vpn ~ppn ->
        Tlb.insert (Imu.tlb imu) ~slot ~obj_id ~vpn ~ppn ~stamp:0);
    resume = (fun () -> Imu.write_cr imu Rvi_core.Imu_regs.cr_resume);
    start = (fun () -> Imu.write_cr imu Rvi_core.Imu_regs.cr_start);
    dirty =
      (fun ~slot ->
        let e = Tlb.get (Imu.tlb imu) ~slot in
        e.Tlb.valid && e.Tlb.dirty);
    read_sr = (fun () -> Imu.read_sr imu);
    read_ar = (fun () -> Imu.read_ar imu);
  }

let make_rtl clock script seed =
  let dpram = Rvi_mem.Dpram.create geom in
  preload dpram seed;
  let port = Cp_port.create () in
  let irq = ref false in
  let imu = Imu_rtl.create ~port ~dpram ~raise_irq:(fun () -> irq := true) () in
  let vport = Rvi_coproc.Vport.create port in
  let m, coproc = SC.create (Rvi_coproc.Mem_port.Virtual vport) script in
  ignore m;
  Clock.add clock (Imu_rtl.component imu);
  Clock.add clock (Rvi_coproc.Vport.sync_component vport);
  Clock.add clock coproc.Rvi_coproc.Coproc.component;
  Imu_rtl.set_param_page imu (Some 0);
  {
    dpram;
    port;
    vport;
    irq;
    finished = (fun () -> Imu_rtl.finished imu);
    fault = (fun () -> Imu_rtl.fault imu);
    install =
      (fun ~slot ~obj_id ~vpn ~ppn -> Imu_rtl.tlb_write imu ~slot ~obj_id ~vpn ~ppn);
    resume = (fun () -> Imu_rtl.write_cr imu Rvi_core.Imu_regs.cr_resume);
    start = (fun () -> Imu_rtl.write_cr imu Rvi_core.Imu_regs.cr_start);
    dirty = (fun ~slot -> Imu_rtl.tlb_dirty imu ~slot);
    read_sr = (fun () -> Imu_rtl.read_sr imu);
    read_ar = (fun () -> Imu_rtl.read_ar imu);
  }

(* Accesses over two objects, two pages each; page-1 touches fault in. *)
let equivalence_script prng ~n =
  List.init n (fun _ ->
      let region = Rvi_sim.Prng.int prng 3 in
      let region = if region = 2 then Cp_port.param_obj else region in
      let width, bytes =
        match Rvi_sim.Prng.int prng 3 with
        | 0 -> (Cp_port.W8, 1)
        | 1 -> (Cp_port.W16, 2)
        | _ -> (Cp_port.W32, 4)
      in
      let addr =
        if region = Cp_port.param_obj then 4 * Rvi_sim.Prng.int prng 8
        else
          let a = Rvi_sim.Prng.int prng (4096 - bytes + 1) in
          a - (a mod bytes)
      in
      let wr = region <> Cp_port.param_obj && Rvi_sim.Prng.bool prng in
      let data = Rvi_sim.Prng.int prng 0x1000000 in
      ( region,
        addr,
        (if region = Cp_port.param_obj then Cp_port.W32 else width),
        wr,
        data ))

let run_equivalence ~seed ~n =
  let engine = Engine.create () in
  (* both machines, three slots each, on the reference stepper *)
  let clock = Clock.create ~batched:false engine ~name:"c" ~freq_hz:1_000_000 in
  let prng = Rvi_sim.Prng.create ~seed in
  let script = equivalence_script prng ~n in
  let a = make_behavioural clock script seed in
  let b = make_rtl clock script seed in
  (* Pre-install page 0 of both objects in slots 0/1 of both machines. *)
  List.iter
    (fun side ->
      side.install ~slot:0 ~obj_id:0 ~vpn:0 ~ppn:1;
      side.install ~slot:1 ~obj_id:1 ~vpn:0 ~ppn:2;
      side.start ())
    [ a; b ];
  let mismatches = ref [] in
  Clock.on_edge clock (fun cycle ->
      let pa = a.port and pb = b.port in
      if
        pa.Cp_port.cp_tlbhit <> pb.Cp_port.cp_tlbhit
        || pa.Cp_port.cp_start <> pb.Cp_port.cp_start
        || (pa.Cp_port.cp_tlbhit && pa.Cp_port.cp_din <> pb.Cp_port.cp_din)
        || pa.Cp_port.cp_access <> pb.Cp_port.cp_access
        || pa.Cp_port.cp_fin <> pb.Cp_port.cp_fin
      then mismatches := cycle :: !mismatches);
  Clock.start clock;
  let next_slot = ref 2 in
  let guard = ref 0 in
  while (not (a.finished () && b.finished ())) && !guard < 200_000 do
    incr guard;
    ignore (Engine.step engine);
    if !(a.irq) || !(b.irq) then begin
      checkb "both sides interrupt together" true (!(a.irq) && !(b.irq));
      a.irq := false;
      b.irq := false;
      checki "identical SR" (a.read_sr ()) (b.read_sr ());
      match (a.fault (), b.fault ()) with
      | Some (oa, va), Some (ob_, vb) ->
        checkb "identical fault" true (oa = ob_ && va = vb);
        checki "identical AR" (a.read_ar ()) (b.read_ar ());
        let slot = !next_slot mod 8 and ppn = 3 + (!next_slot mod 5) in
        incr next_slot;
        List.iter
          (fun side ->
            side.install ~slot ~obj_id:oa ~vpn:va ~ppn;
            side.resume ())
          [ a; b ]
      | None, None -> () (* completion interrupt *)
      | Some _, None | None, Some _ -> Alcotest.fail "fault on one side only"
    end
  done;
  Clock.stop clock;
  checkb "both machines finished" true (a.finished () && b.finished ());
  Alcotest.(check (list int)) "no port mismatches" [] !mismatches;
  (* Memory effects and hardware dirty bits agree. *)
  for page = 0 to Rvi_mem.Dpram.n_pages a.dpram - 1 do
    let da = Bytes.create 2048 and db = Bytes.create 2048 in
    Rvi_mem.Dpram.store_page a.dpram ~page da ~dst:0 ~len:2048;
    Rvi_mem.Dpram.store_page b.dpram ~page db ~dst:0 ~len:2048;
    checkb (Printf.sprintf "page %d identical" page) true (Bytes.equal da db)
  done;
  for slot = 0 to 7 do
    checkb
      (Printf.sprintf "slot %d dirty bit identical" slot)
      true
      (a.dirty ~slot = b.dirty ~slot)
  done

let test_equivalence_small () = run_equivalence ~seed:1 ~n:40
let test_equivalence_faulty () = run_equivalence ~seed:2 ~n:120

let prop_equivalence =
  QCheck.Test.make ~name:"behavioural and RTL IMUs are cycle-equivalent"
    ~count:10
    QCheck.(pair (int_bound 100_000) (int_range 10 150))
    (fun (seed, n) ->
      run_equivalence ~seed ~n;
      true)

let suite =
  [
    Alcotest.test_case "rtl/equivalence-small" `Quick test_equivalence_small;
    Alcotest.test_case "rtl/equivalence-faulty" `Quick test_equivalence_faulty;
    QCheck_alcotest.to_alcotest prop_equivalence;
  ]
