(* Test entry point: one Alcotest suite per library plus integration. *)

let () =
  Alcotest.run "rvi"
    [
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("hw", Test_hw.suite);
      ("mem", Test_mem.suite);
      ("fpga", Test_fpga.suite);
      ("os", Test_os.suite);
      ("inject", Test_inject.suite);
      ("core", Test_core.suite);
      ("vim", Test_vim.suite);
      ("rtl", Test_rtl.suite);
      ("coproc", Test_coproc.suite);
      ("harness", Test_harness.suite);
      ("refs", Test_refs.suite);
      ("par", Test_par.suite);
      ("scenario", Test_scenario.suite);
      ("svc", Test_svc.suite);
    ]
