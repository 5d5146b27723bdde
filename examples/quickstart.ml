(* Quickstart: the paper's motivating example (Figures 3, 5 and 6).

   The application adds two vectors on a coprocessor through the virtual
   interface. Note what the code does NOT contain: no physical address, no
   dual-port-memory size, no chunking loop — the three FPGA_* services are
   the entire interface, exactly as in Figure 6:

     FPGA_LOAD(ADD_bitstream);
     FPGA_MAP_OBJECT(0, A, SIZE, IN);
     FPGA_MAP_OBJECT(1, B, SIZE, IN);
     FPGA_MAP_OBJECT(2, C, SIZE, OUT);
     FPGA_EXECUTE(SIZE);

   Run with:  dune exec examples/quickstart.exe *)

module Platform = Rvi_harness.Platform
module Api = Rvi_core.Api

let bytes_of_words = Rvi_harness.Jobs.bytes_of_words

let or_die = function
  | Ok () -> ()
  | Error e -> failwith ("syscall failed: " ^ Rvi_os.Syscall.errno_name e)

let () =
  let size = 4096 in
  Printf.printf "vector add of %d elements (3 x %d KB of data, %d KB dual-port RAM)\n"
    size (4 * size / 1024)
    (Rvi_fpga.Device.epxa1.Rvi_fpga.Device.dpram_bytes / 1024);

  (* Build the platform: EPXA1, Linux-like kernel, VIM, IMU, coprocessor. *)
  let cfg = Rvi_harness.Config.default () in
  let p =
    Platform.create ~app_name:"quickstart" cfg
      ~bitstream:Rvi_harness.Calibration.vecadd_bitstream
      ~make:(Rvi_harness.Jobs.make_virtual Rvi_harness.Jobs.Vecadd)
  in

  (* User-space data, like any heap allocation. *)
  let a, b = Rvi_harness.Workload.vectors ~seed:7 ~n:size in
  let buf_a = Platform.alloc_bytes p (bytes_of_words a) in
  let buf_b = Platform.alloc_bytes p (bytes_of_words b) in
  let buf_c = Platform.alloc p (4 * size) in

  (* The five lines of Figure 6. *)
  or_die (Api.fpga_load p.Platform.api Rvi_harness.Calibration.vecadd_bitstream);
  or_die
    (Api.fpga_map_object p.Platform.api ~id:0 ~buf:buf_a
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  or_die
    (Api.fpga_map_object p.Platform.api ~id:1 ~buf:buf_b
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  or_die
    (Api.fpga_map_object p.Platform.api ~id:2 ~buf:buf_c
       ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  or_die (Api.fpga_execute p.Platform.api ~params:[ size ]);

  (* Check the result against the pure-software version of Figure 3. *)
  let expected = bytes_of_words (Rvi_coproc.Vecadd.reference ~a ~b) in
  let correct = Bytes.equal (Platform.read p buf_c) expected in
  Printf.printf "result: %s\n" (if correct then "bit-exact" else "WRONG");

  (* The working set was 48 KB against 16 KB of dual-port memory; the OS
     paged it transparently: *)
  let stats = Rvi_core.Vim.stats p.Platform.vim in
  Printf.printf
    "page faults: %d, evictions: %d, write-backs: %d (all invisible to the \
     code above)\n"
    (Rvi_sim.Stats.get stats "faults")
    (Rvi_sim.Stats.get stats "evictions")
    (Rvi_sim.Stats.get stats "writebacks");
  Printf.printf "simulated time: %.3f ms\n"
    (Rvi_sim.Simtime.to_ms
       (Rvi_os.Accounting.total (Rvi_os.Kernel.accounting p.Platform.kernel)));
  if not correct then exit 1
