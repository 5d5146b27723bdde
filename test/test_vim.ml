(* Focused unit tests for the VIM's bookkeeping, driven through a real
   platform so every path exercises the actual hardware underneath, plus
   the port-equivalence property that underpins the paper's portability
   claim. *)

module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Clock = Rvi_sim.Clock
module Stats = Rvi_sim.Stats
module Config = Rvi_harness.Config
module Platform = Rvi_harness.Platform
module Calibration = Rvi_harness.Calibration
module Workload = Rvi_harness.Workload
module Api = Rvi_core.Api
module Vim = Rvi_core.Vim
module Cp_port = Rvi_core.Cp_port

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let cfg () = Config.default ()

module Translation_mode = Rvi_core.Translation_mode

(* Runs [f] once per translation mode, on a configuration built by
   [cfg]: the VIM has one page lifecycle, so its bookkeeping checks hold
   in both. *)
let in_both_modes f =
  List.iter
    (fun translation -> f translation { (cfg ()) with Config.translation })
    Translation_mode.all

let vecadd_platform ?(cfg = cfg ()) () =
  Platform.create ~app_name:"vimtest" cfg
    ~bitstream:Calibration.vecadd_bitstream
    ~make:(Rvi_harness.Jobs.make_virtual Rvi_harness.Jobs.Vecadd)

let to_bytes words =
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri
    (fun i w ->
      for k = 0 to 3 do
        Bytes.set b ((4 * i) + k) (Char.chr ((w lsr (8 * k)) land 0xFF))
      done)
    words;
  b

let run_vecadd p n =
  let a, b = Workload.vectors ~seed:5 ~n in
  let buf_a = Platform.alloc_bytes p (to_bytes a) in
  let buf_b = Platform.alloc_bytes p (to_bytes b) in
  let buf_c = Platform.alloc p (4 * n) in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf:buf_a
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:1 ~buf:buf_b
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:2 ~buf:buf_c
       ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  ok (Api.fpga_execute p.Platform.api ~params:[ n ]);
  let expected = to_bytes (Rvi_coproc.Vecadd.reference ~a ~b) in
  checkb "output correct" true (Bytes.equal (Platform.read p buf_c) expected)

(* {1 Pre-mapping (FPGA_EXECUTE "performs the mapping")} *)

let test_premap_fills_frames () =
  let p = vecadd_platform () in
  (* 3 objects x 1 page each + parameter page: everything pre-maps. *)
  run_vecadd p 128;
  let s = Vim.stats p.Platform.vim in
  checki "three pages pre-mapped" 3 (Stats.get s "premapped");
  checki "no demand faults" 0 (Stats.get s "faults")

let test_premap_stops_at_capacity () =
  let p = vecadd_platform () in
  (* 3 objects x 4 pages = 12 pages against 7 data frames. *)
  run_vecadd p 2048;
  let s = Vim.stats p.Platform.vim in
  checki "pre-maps exactly the free frames" 7 (Stats.get s "premapped");
  checkb "remaining pages fault in" true (Stats.get s "faults" > 0)

(* {1 Frame and TLB state after completion} *)

let test_clean_state_after_fin () =
  in_both_modes (fun mode cfg ->
      let p = vecadd_platform ~cfg () in
      let name what = Translation_mode.name mode ^ ": " ^ what in
      run_vecadd p 1024;
      checki (name "no frames held after flush") 0
        (Rvi_core.Frame_table.held_count (Vim.frame_table p.Platform.vim));
      checkb (name "no parameter page held") true
        (Rvi_core.Frame_table.param_frame (Vim.frame_table p.Platform.vim)
        = None);
      checki (name "TLB fully invalidated") 0
        (Rvi_core.Tlb.valid_count (Rvi_core.Imu.tlb p.Platform.imu));
      match mode with
      | Translation_mode.Paper_objects -> ()
      | Translation_mode.Iommu_sva -> (
        checki (name "L2 TLB fully invalidated") 0
          (Rvi_core.Tlb.valid_count
             (Option.get (Rvi_core.Imu.l2 p.Platform.imu)));
        match Rvi_core.Imu.page_table p.Platform.imu with
        | Some pt ->
          checki (name "no PTE left") 0 (Rvi_os.Page_table.mapped_count pt)
        | None -> Alcotest.fail "no page table bound after an SVA execution"))

(* {1 Parameter-page recycling (§3.2)} *)

let test_param_page_recycled_under_pressure () =
  let p = vecadd_platform () in
  (* Large run: the spent parameter page must be reclaimed for data. *)
  run_vecadd p 4096;
  let s = Vim.stats p.Platform.vim in
  checki "parameter page released once" 1 (Stats.get s "param_releases")

let test_param_page_kept_when_room () =
  let p = vecadd_platform () in
  run_vecadd p 128;
  let s = Vim.stats p.Platform.vim in
  checki "no need to recycle" 0 (Stats.get s "param_releases")

(* {1 Write-back of evicted output pages (correctness corner)} *)

let test_written_back_pages_reload () =
  (* An output page evicted dirty and faulted in again must come back from
     user space with its earlier contents — otherwise results are lost.
     vecadd with many pages on a tiny 4-frame memory forces exactly that. *)
  let device =
    { Rvi_fpga.Device.epxa1 with Rvi_fpga.Device.dpram_bytes = 8 * 1024; name = "TINY8" }
  in
  in_both_modes (fun mode cfg ->
      let p = vecadd_platform ~cfg:{ cfg with Config.device } () in
      let name what = Translation_mode.name mode ^ ": " ^ what in
      run_vecadd p 3000;
      let s = Vim.stats p.Platform.vim in
      checkb (name "evictions happened") true (Stats.get s "evictions" > 0);
      checkb (name "write-backs happened") true (Stats.get s "writebacks" > 0))

(* {1 Double transfers cost exactly twice (unit-level)} *)

let test_transfer_factor () =
  let run transfer =
    let p = vecadd_platform ~cfg:{ (cfg ()) with Config.transfer } () in
    run_vecadd p 2048;
    Rvi_os.Accounting.get
      (Rvi_os.Kernel.accounting p.Platform.kernel)
      Rvi_os.Accounting.Sw_dp
  in
  let double = run Vim.Double and single = run Vim.Single in
  checki "double is exactly twice single"
    (2 * Simtime.to_ps single)
    (Simtime.to_ps double)

(* {1 Port equivalence: the portability claim as a property}

   The same coprocessor FSM runs behind the virtual port (through IMU,
   TLB, VIM, page faults) and behind the direct physical port. For random
   access scripts the data read and the memory effects must be identical.
   This is the module-system enforcement of §2's portability goal, checked
   dynamically. *)

module Script_coproc = struct
  module P = Rvi_coproc.Mem_port

  (* Replays a list of accesses: (region, addr, width, write?, data). *)
  type action = int * int * Cp_port.width * bool * int

  type m = {
    port : P.t;
    script : action array;
    mutable index : int;
    mutable started : bool;
    mutable waiting : bool;
    reads : (int * int) Queue.t; (* (script index, value) *)
  }

  let compute m =
    P.sample m.port;
    if (not m.started) && P.start_seen m.port then m.started <- true;
    if m.started then
      if m.waiting then begin
        if P.ready m.port then begin
          let region, _, _, wr, _ = m.script.(m.index) in
          ignore region;
          if not wr then Queue.push (m.index, P.data m.port) m.reads;
          m.index <- m.index + 1;
          m.waiting <- false;
          if m.index >= Array.length m.script then P.finish m.port
        end
      end
      else if m.index < Array.length m.script && not (P.busy m.port) then begin
        let region, addr, width, wr, data = m.script.(m.index) in
        P.issue m.port ~region ~addr ~wr ~width ~data;
        m.waiting <- true
      end

  let create port script =
    let m =
      {
        port;
        script = Array.of_list script;
        index = 0;
        started = false;
        waiting = false;
        reads = Queue.create ();
      }
    in
    ( m,
      {
        Rvi_coproc.Coproc.name = "script";
        component =
          Clock.component ~name:"script"
            ~compute:(fun () -> compute m)
            ~commit:(fun () -> P.commit m.port)
            ();
        finished = (fun () -> m.index >= Array.length m.script);
        reset = ignore;
        stats = Stats.create ();
      } )
end

let random_script prng ~obj_bytes ~n =
  List.init n (fun _ ->
      let region = Rvi_sim.Prng.int prng 2 in
      let width, bytes =
        match Rvi_sim.Prng.int prng 3 with
        | 0 -> (Cp_port.W8, 1)
        | 1 -> (Cp_port.W16, 2)
        | _ -> (Cp_port.W32, 4)
      in
      let addr = Rvi_sim.Prng.int prng (obj_bytes - bytes + 1) in
      (* Keep accesses aligned within pages by aligning to the width. *)
      let addr = addr - (addr mod bytes) in
      let wr = region = 1 && Rvi_sim.Prng.bool prng in
      let data = Rvi_sim.Prng.int prng 0x1000000 in
      (region, addr, width, wr, data))

let run_script_virtual script ~obj_bytes ~init0 ~init1 =
  let made = ref None in
  let p =
    Platform.create (cfg ()) ~bitstream:Calibration.vecadd_bitstream
      ~make:(fun port ->
        let vport = Rvi_coproc.Vport.create port in
        let m, coproc = Script_coproc.create (Rvi_coproc.Mem_port.Virtual vport) script in
        made := Some m;
        (vport, coproc))
  in
  let m = Option.get !made in
  let buf0 = Platform.alloc_bytes p init0 in
  let buf1 = Platform.alloc_bytes p init1 in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf:buf0
       ~dir:Rvi_core.Mapped_object.In ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:1 ~buf:buf1
       ~dir:Rvi_core.Mapped_object.Inout ());
  ok (Api.fpga_execute p.Platform.api ~params:[ 0 ]);
  ignore obj_bytes;
  let reads = List.of_seq (Queue.to_seq m.reads) in
  (reads, Platform.read p buf1)

let run_script_direct script ~obj_bytes ~init0 ~init1 =
  let engine = Engine.create () in
  let cost = Rvi_os.Cost_model.default ~cpu_freq_hz:133_000_000 in
  let kernel = Rvi_os.Kernel.create ~engine ~cost ~sdram_bytes:(1024 * 1024) () in
  let dpram =
    Rvi_mem.Dpram.create (Rvi_fpga.Device.geometry Rvi_fpga.Device.epxa1)
  in
  let dport = Rvi_coproc.Dport.create ~dpram in
  let m, coproc = Script_coproc.create (Rvi_coproc.Mem_port.Direct dport) script in
  let clock = Clock.create engine ~name:"c" ~freq_hz:40_000_000 in
  Clock.add clock coproc.Rvi_coproc.Coproc.component;
  let buf0 = Rvi_os.Uspace.of_bytes kernel init0 in
  let buf1 = Rvi_os.Uspace.of_bytes kernel init1 in
  let regions =
    [
      {
        Rvi_coproc.Normal_driver.region = 0;
        buf = buf0;
        dir = Rvi_core.Mapped_object.In;
      };
      {
        Rvi_coproc.Normal_driver.region = 1;
        buf = buf1;
        dir = Rvi_core.Mapped_object.Inout;
      };
    ]
  in
  (match
     Rvi_coproc.Normal_driver.run ~kernel ~dpram ~ahb:Rvi_mem.Ahb.default
       ~clocks:[ clock ] ~dport ~coproc ~regions ~params:[ 0 ] ()
   with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "direct run failed: %s"
      (Rvi_coproc.Normal_driver.error_to_string e));
  ignore obj_bytes;
  let reads = List.of_seq (Queue.to_seq m.reads) in
  (reads, Rvi_os.Uspace.read kernel buf1)

let prop_port_equivalence =
  QCheck.Test.make ~name:"virtual and direct ports are observably equivalent"
    ~count:8
    QCheck.(pair (int_bound 10_000) (int_range 20 120))
    (fun (seed, n) ->
      let obj_bytes = 4096 in
      let prng = Rvi_sim.Prng.create ~seed in
      let script = random_script prng ~obj_bytes ~n in
      let init0 = Workload.random_bytes ~seed:(seed + 1) ~n:obj_bytes in
      let init1 = Workload.random_bytes ~seed:(seed + 2) ~n:obj_bytes in
      let r_virt = run_script_virtual script ~obj_bytes ~init0 ~init1 in
      let r_dir = run_script_direct script ~obj_bytes ~init0 ~init1 in
      fst r_virt = fst r_dir && Bytes.equal (snd r_virt) (snd r_dir))

let suite =
  [
    Alcotest.test_case "vim/premap-fills" `Quick test_premap_fills_frames;
    Alcotest.test_case "vim/premap-capacity" `Quick test_premap_stops_at_capacity;
    Alcotest.test_case "vim/clean-after-fin" `Quick test_clean_state_after_fin;
    Alcotest.test_case "vim/param-page-recycled" `Quick
      test_param_page_recycled_under_pressure;
    Alcotest.test_case "vim/param-page-kept" `Quick test_param_page_kept_when_room;
    Alcotest.test_case "vim/writeback-reload" `Quick test_written_back_pages_reload;
    Alcotest.test_case "vim/transfer-factor" `Quick test_transfer_factor;
    QCheck_alcotest.to_alcotest prop_port_equivalence;
  ]

let test_param_page_overflow () =
  let p = vecadd_platform () in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
  ok (Api.fpga_load p.Platform.api Calibration.vecadd_bitstream);
  let buf = Platform.alloc p 64 in
  ok
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf
       ~dir:Rvi_core.Mapped_object.In ());
  (* 513 words cannot fit a 2 KB parameter page; they must be rejected
     rather than silently overwriting the first data frame. *)
  match
    Api.fpga_execute p.Platform.api ~params:(List.init 513 (fun i -> i))
  with
  | Error Rvi_os.Syscall.EINVAL -> ()
  | Ok () -> Alcotest.fail "oversized parameter list accepted"
  | Error e -> Alcotest.failf "wrong errno %s" (Rvi_os.Syscall.errno_name e)

(* {1 Regression: TLB refills stamp the inserted entry (LRU thrash)}

   Tlb.insert used to reset last_access to 0, so a just-refilled entry
   looked least-recently-used and the LRU scan in Vim.refill_tlb kept
   re-victimising the pages whose faults had just been serviced. With a
   4-entry TLB over vecadd's 3-page working set the stamped insert takes a
   handful of refill faults; the zero-stamp bug took thousands (measured:
   7 vs 2559 on this exact workload). *)

let test_refill_stamp_no_thrash () =
  let p =
    vecadd_platform ~cfg:{ (cfg ()) with Config.tlb_entries = Some 4 } ()
  in
  run_vecadd p 2048;
  let refills = Stats.get (Vim.stats p.Platform.vim) "tlb_refill_faults" in
  checkb
    (Printf.sprintf "LRU does not thrash on refills (%d)" refills)
    true (refills < 100)

(* {1 Regression: the caller is woken exactly once}

   Vim.execute used to wake the caller unconditionally after the pump loop
   even though handle_fin had already woken it on the happy path. The
   second wake was latent (Sched.wake is a no-op on a ready process) but
   is exactly the class of bug that breaks once wake gains side effects —
   the scheduler now counts such redundant wakes. *)

let test_caller_woken_once () =
  let p = vecadd_platform () in
  run_vecadd p 2048;
  let sched = Rvi_os.Kernel.sched p.Platform.kernel in
  checki "no redundant wakes" 0 (Rvi_os.Sched.redundant_wakes sched)

(* {1 Trace integration: spans nest and match the counters} *)

let test_trace_spans () =
  let tr = Rvi_obs.Trace.create () in
  let p =
    vecadd_platform ~cfg:{ (cfg ()) with Config.trace = Some tr } ()
  in
  run_vecadd p 2048;
  let module Trace = Rvi_obs.Trace in
  let events = Trace.events tr in
  let count pred = List.length (List.filter (fun e -> pred e.Trace.kind) events) in
  let s = Vim.stats p.Platform.vim in
  checki "one execute span" 1
    (count (function Trace.Exec_end _ -> true | _ -> false));
  checki "fault spans match the counter"
    (Stats.get s "faults")
    (count (function Trace.Fault _ -> true | _ -> false));
  checki "eviction events match"
    (Stats.get s "evictions")
    (count (function Trace.Page_evict _ -> true | _ -> false));
  checki "writeback events match"
    (Stats.get s "writebacks")
    (count (function Trace.Page_writeback _ -> true | _ -> false));
  (* Every fault span lies inside the execute span, and contains at least
     the decode segment that started its service. *)
  let exec =
    List.find (fun e -> match e.Trace.kind with Trace.Exec_end _ -> true | _ -> false) events
  in
  let ends e = Simtime.add e.Trace.at e.Trace.dur in
  List.iter
    (fun e ->
      match e.Trace.kind with
      | Trace.Fault _ ->
        checkb "fault within execute" true
          Simtime.(exec.Trace.at <= e.Trace.at && ends e <= ends exec);
        checkb "fault contains a decode segment" true
          (List.exists
             (fun d ->
               d.Trace.kind = Trace.Decode
               && Simtime.(e.Trace.at <= d.Trace.at && ends d <= ends e))
             events)
      | _ -> ())
    events;
  (* The trace round-trips through the JSONL exporter unchanged. *)
  checkb "jsonl round trip" true
    (Rvi_obs.Export.of_jsonl (Rvi_obs.Export.to_jsonl events) = events)

(* {1 Regression: FPGA_UNLOAD forgets every object, in both modes}

   Unloading used to empty only the paper-mode object table: the IMU's SVA
   window registers stayed programmed, so an SVA process that mapped
   objects 0-2, unloaded, reloaded and mapped only 0 and 1 executed
   successfully, its accesses to object 2 going through the stale window.
   Paper mode refused the access to the unmapped object; now both do. *)

let test_unload_forgets_objects () =
  in_both_modes (fun mode cfg ->
      let p = vecadd_platform ~cfg () in
      let name what = Translation_mode.name mode ^ ": " ^ what in
      let api = p.Platform.api in
      run_vecadd p 128;
      let ok = function Ok () -> () | Error _ -> Alcotest.fail "setup failed" in
      ok (Api.fpga_unload api);
      checkb (name "window registers unprogrammed") true
        (Rvi_core.Imu.sva_window p.Platform.imu ~obj:2 = None);
      ok (Api.fpga_load api Calibration.vecadd_bitstream);
      List.iter
        (fun id ->
          ok
            (Api.fpga_map_object api ~id ~buf:(Platform.alloc p 512)
               ~dir:Rvi_core.Mapped_object.In ()))
        [ 0; 1 ];
      (match Api.fpga_execute api ~params:[ 128 ] with
      | Error Rvi_os.Syscall.EFAULT -> ()
      | Ok () -> Alcotest.fail (name "execution reached an unmapped object")
      | Error e ->
        Alcotest.failf "%s" (name ("wrong errno " ^ Rvi_os.Syscall.errno_name e)));
      let expected =
        match mode with
        | Translation_mode.Paper_objects -> Vim.Unmapped_object 2
        | Translation_mode.Iommu_sva -> Vim.Sva_fault { vpn = -1 }
      in
      Alcotest.(check (option string))
        (name "fault names the forgotten object")
        (Some (Vim.error_to_string expected))
        (Api.last_error api))

let suite = suite @ [
  Alcotest.test_case "vim/param-page-overflow" `Quick test_param_page_overflow;
  Alcotest.test_case "vim/regression-unload-forgets-objects" `Quick
    test_unload_forgets_objects;
  Alcotest.test_case "vim/regression-refill-stamp" `Quick
    test_refill_stamp_no_thrash;
  Alcotest.test_case "vim/regression-single-wake" `Quick test_caller_woken_once;
  Alcotest.test_case "vim/trace-spans" `Quick test_trace_spans;
]
