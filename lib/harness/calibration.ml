let cpu_freq_hz = 133_000_000
let adpcm_clock_hz = 40_000_000
let idea_imu_clock_hz = 24_000_000
let idea_divide = 4

let adpcm_bitstream =
  Rvi_fpga.Bitstream.make ~name:"adpcmdecode_vim" ~logic_elements:2_600
    ~imu_freq_hz:adpcm_clock_hz ~param_words:1 ()

let idea_bitstream =
  Rvi_fpga.Bitstream.make ~name:"idea_vim" ~logic_elements:3_900
    ~imu_freq_hz:idea_imu_clock_hz ~coproc_divide:idea_divide ~param_words:10 ()

let vecadd_bitstream =
  Rvi_fpga.Bitstream.make ~name:"vecadd_vim" ~logic_elements:450
    ~imu_freq_hz:adpcm_clock_hz ~param_words:1 ()

let fir_bitstream =
  Rvi_fpga.Bitstream.make ~name:"fir_vim" ~logic_elements:1_800
    ~imu_freq_hz:adpcm_clock_hz ~param_words:3 ()

type prediction = {
  name : string;
  expected : float;
  computed : float;
  tolerance : float;
}

let ms_of_cycles ~hz cycles = float_of_int cycles /. float_of_int hz *. 1e3

let check () =
  let idea_sw_4kb =
    (* 4 KB = 512 blocks of software IDEA. *)
    ms_of_cycles ~hz:cpu_freq_hz (512 * Rvi_coproc.Idea_coproc.sw_cycles_per_block)
  in
  let adpcm_sw_2kb =
    (* 2 KB input = 4096 samples of software decode. *)
    ms_of_cycles ~hz:cpu_freq_hz (4096 * Rvi_coproc.Adpcm_coproc.sw_cycles_per_sample)
  in
  let ahb_page_copy_us =
    (* One 2 KB page over the AHB, single transfer. *)
    float_of_int (Rvi_mem.Ahb.copy_cycles Rvi_mem.Ahb.default ~bytes:2048)
    /. float_of_int cpu_freq_hz *. 1e6
  in
  [
    {
      name = "software IDEA, 4 KB (ms)";
      expected = 26.0;
      computed = idea_sw_4kb;
      tolerance = 0.02;
    };
    {
      name = "software adpcmdecode, 2 KB input (ms)";
      expected = 4.5;
      computed = adpcm_sw_2kb;
      tolerance = 0.05;
    };
    {
      name = "AHB single transfer of one 2 KB page (us)";
      expected = 77.9;
      computed = ahb_page_copy_us;
      tolerance = 0.05;
    };
  ]
