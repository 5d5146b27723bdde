(* codesign_flow: the §2 toolchain in one sitting.

   "An appropriately augmented OS, a compiler, and a synthesiser must be
   sufficient to port the accelerated application across different
   systems." For a new coprocessor idea — say a histogram unit — the
   designer pair agrees on the object arrangement once, and this flow
   emits everything both sides start from:

   - the C header + stub the software designer links against,
   - the portable VHDL entity the hardware designer fills in,
   - the platform-specific IMU entity and stripe wrapper per device,
   - and, once a golden model runs in the simulator, a self-checking
     testbench generated from its capture.

   Run with:  dune exec examples/codesign_flow.exe   (writes ./codesign/) *)

let write_file dir (name, contents) =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "  %s (%d bytes)\n" path (String.length contents)

let () =
  let dir = "codesign" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;

  (* The arrangement: object 0 = input bytes, object 1 = 256 bins. *)
  let spec =
    Rvi_core.Stub_gen.make ~app:"histogram"
      ~objects:
        [
          {
            Rvi_core.Stub_gen.id = 0;
            c_name = "input";
            ty = Rvi_core.Stub_gen.U8;
            dir = Rvi_core.Mapped_object.In;
            stream = true;
          };
          {
            Rvi_core.Stub_gen.id = 1;
            c_name = "bins";
            ty = Rvi_core.Stub_gen.U32;
            dir = Rvi_core.Mapped_object.Inout;
            stream = false;
          };
        ]
      ~params:[ "input_bytes" ]
  in
  print_endline "software side (the 'compiler'):";
  List.iter (write_file dir) (Rvi_core.Stub_gen.emit_all spec);

  print_endline "hardware side (the 'synthesiser' input), per device:";
  List.iter
    (fun device ->
      let design =
        Rvi_core.Vhdl_gen.make ~name:"histogram" ~device ()
      in
      let subdir = Filename.concat dir device.Rvi_fpga.Device.name in
      if not (Sys.file_exists subdir) then Sys.mkdir subdir 0o755;
      Printf.printf " %s:\n" device.Rvi_fpga.Device.name;
      List.iter (write_file subdir) (Rvi_core.Vhdl_gen.emit_all design))
    [ Rvi_fpga.Device.epxa1; Rvi_fpga.Device.xc2vp7 ];

  (* Co-simulation vectors from a golden run (vecadd stands in for the
     not-yet-written histogram core). *)
  let p =
    Rvi_harness.Platform.create (Rvi_harness.Config.default ())
      ~bitstream:Rvi_harness.Calibration.vecadd_bitstream
      ~make:(Rvi_harness.Jobs.make_virtual Rvi_harness.Jobs.Vecadd)
  in
  let wave = Rvi_harness.Platform.trace p in
  let a, b = Rvi_harness.Workload.vectors ~seed:1 ~n:8 in
  let buf_a = Rvi_harness.Platform.alloc_bytes p (Rvi_harness.Jobs.bytes_of_words a) in
  let buf_b = Rvi_harness.Platform.alloc_bytes p (Rvi_harness.Jobs.bytes_of_words b) in
  let buf_c = Rvi_harness.Platform.alloc p 32 in
  let ok = function Ok () -> () | Error _ -> failwith "golden run failed" in
  ok
    (Rvi_core.Api.fpga_load p.Rvi_harness.Platform.api
       Rvi_harness.Calibration.vecadd_bitstream);
  ok
    (Rvi_core.Api.fpga_map_object p.Rvi_harness.Platform.api ~id:0 ~buf:buf_a
       ~dir:Rvi_core.Mapped_object.In ());
  ok
    (Rvi_core.Api.fpga_map_object p.Rvi_harness.Platform.api ~id:1 ~buf:buf_b
       ~dir:Rvi_core.Mapped_object.In ());
  ok
    (Rvi_core.Api.fpga_map_object p.Rvi_harness.Platform.api ~id:2 ~buf:buf_c
       ~dir:Rvi_core.Mapped_object.Out ());
  ok (Rvi_core.Api.fpga_execute p.Rvi_harness.Platform.api ~params:[ 8 ]);
  let design =
    Rvi_core.Vhdl_gen.make ~name:"vecadd" ~device:Rvi_fpga.Device.epxa1 ()
  in
  print_endline "co-simulation vectors from the golden model:";
  write_file dir
    ("vecadd_tb.vhd", Rvi_core.Vhdl_gen.testbench_vhdl ~max_cycles:600 design ~wave);
  print_endline "\nboth sides now hold the same contract; the OS does the rest."
