(* portability: the paper's §4 claim in action.

   "Using the module on the system with different size of the dual-port
   memory (e.g., the Altera devices EPXA4 and EPXA10) would require only
   recompiling the module. The user application would immediately benefit
   without need to recompile."

   This program runs the *identical* application and coprocessor across
   the three devices. Only the configuration record changes — the stand-in
   for recompiling the kernel module. Watch the page faults disappear as
   the dual-port memory grows, with zero changes to application code.

   Run with:  dune exec examples/portability.exe *)

let () =
  let input = Rvi_harness.Jobs.generate Rvi_harness.Jobs.Adpcm ~seed:5 ~bytes:(8 * 1024) in
  Printf.printf
    "adpcmdecode, 8 KB in / 32 KB out, same binaries on every device:\n\n";
  Printf.printf "%-8s %10s %10s %8s %8s %10s\n" "device" "DP RAM" "total(ms)"
    "faults" "evict" "verified";
  List.iter
    (fun device ->
      let cfg = { (Rvi_harness.Config.default ()) with Rvi_harness.Config.device } in
      let row = Rvi_harness.Runner.run cfg Rvi_harness.Runner.Vim input in
      Printf.printf "%-8s %8dKB %10.3f %8d %8d %10b\n"
        device.Rvi_fpga.Device.name
        (device.Rvi_fpga.Device.dpram_bytes / 1024)
        (Rvi_sim.Simtime.to_ms row.Rvi_harness.Report.total)
        row.Rvi_harness.Report.faults row.Rvi_harness.Report.evictions
        row.Rvi_harness.Report.verified;
      if not (Rvi_harness.Report.ok row) then exit 1)
    Rvi_fpga.Device.all;
  print_endline
    "\nNo application or coprocessor change was needed — only the module \
     configuration.";
  (* And the other side of the coin: a bit-stream too big for a device is
     rejected at FPGA_LOAD time rather than failing silently. *)
  let big =
    Rvi_fpga.Bitstream.make ~name:"monster" ~logic_elements:20_000
      ~imu_freq_hz:40_000_000 ~param_words:0 ()
  in
  let pld = Rvi_fpga.Pld.create Rvi_fpga.Device.epxa1 in
  (match Rvi_fpga.Pld.configure pld ~pid:1 big with
  | Error e ->
    Printf.printf "FPGA_LOAD of a 20k-LE design on the EPXA1: %s\n"
      (Rvi_fpga.Pld.error_to_string e)
  | Ok () -> print_endline "unexpectedly configured!")
