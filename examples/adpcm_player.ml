(* adpcm_player: the paper's multimedia workload as an application.

   Decodes a 12 KB IMA-ADPCM clip (48 KB of PCM out — three times the
   dual-port memory) through the coprocessor, compares against the
   software decoder for both correctness and simulated time, and prints a
   tiny "VU meter" of the decoded audio to show the data is real.

   Run with:  dune exec examples/adpcm_player.exe *)

let () =
  let cfg = Rvi_harness.Config.default () in
  let clip_bytes = 12 * 1024 in
  let input = Rvi_harness.Workload.adpcm_stream ~seed:2024 ~bytes:clip_bytes in
  Printf.printf "clip: %d KB compressed -> %d KB PCM (dual-port RAM: %d KB)\n"
    (clip_bytes / 1024)
    (Rvi_coproc.Adpcm_ref.decoded_size clip_bytes / 1024)
    (cfg.Rvi_harness.Config.device.Rvi_fpga.Device.dpram_bytes / 1024);

  let run impl = Rvi_harness.Runner.run cfg impl (Rvi_harness.Jobs.Adpcm_in input) in
  let sw = run Rvi_harness.Runner.Sw and hw = run Rvi_harness.Runner.Vim in
  Rvi_harness.Report.print_table Format.std_formatter [ sw; hw ];
  (match Rvi_harness.Report.speedup ~baseline:sw hw with
  | Some s -> Printf.printf "speedup over software: %.2fx\n" s
  | None -> ());

  (* Show the decoded waveform is real audio: RMS level per block. *)
  let pcm = Rvi_coproc.Adpcm_ref.decode input in
  let samples = Bytes.length pcm / 2 in
  let blocks = 16 in
  let per_block = samples / blocks in
  print_endline "decoded signal level:";
  for blk = 0 to blocks - 1 do
    let acc = ref 0.0 in
    for i = blk * per_block to ((blk + 1) * per_block) - 1 do
      let v =
        Char.code (Bytes.get pcm (2 * i))
        lor (Char.code (Bytes.get pcm ((2 * i) + 1)) lsl 8)
      in
      let v = if v land 0x8000 <> 0 then v - 0x10000 else v in
      acc := !acc +. (float_of_int v *. float_of_int v)
    done;
    let rms = sqrt (!acc /. float_of_int per_block) in
    let bars = int_of_float (rms /. 32768.0 *. 60.0) in
    Printf.printf "  %2d |%s\n" blk (String.make bars '>')
  done;
  if not (Rvi_harness.Report.ok hw) then exit 1
