(* trace_explorer: the analysis tool-chain around a single run.

   Records the coprocessor's page reference string through the IMU's trace
   probe while decoding an ADPCM clip, then answers the questions an OS
   researcher (the paper's conclusion audience) would ask of it:

   - how many faults would LRU take at every possible memory size
     (Mattson stack analysis — one pass, every size at once)?
   - what is the clairvoyant lower bound (Belady's OPT)?
   - how did the shipped FIFO VIM actually do?

   It also dumps the first micro-seconds of the signal-level capture as a
   VCD file for a waveform viewer, a self-checking VHDL testbench
   generated from the same capture, and the structured event trace in both
   exporter formats (Chrome trace_event for Perfetto, JSONL for scripts),
   with a span-level breakdown of where fault-service time went.

   Run with:  dune exec examples/trace_explorer.exe *)

module Platform = Rvi_harness.Platform
module Mrc = Rvi_harness.Mrc
module Trace = Rvi_obs.Trace
module Export = Rvi_obs.Export

let () =
  let cfg =
    {
      (Rvi_harness.Config.default ()) with
      Rvi_harness.Config.trace = Some (Trace.create ());
    }
  in
  let input = Rvi_harness.Workload.adpcm_stream ~seed:11 ~bytes:(8 * 1024) in
  let p =
    Platform.create ~app_name:"explorer" cfg
      ~bitstream:Rvi_harness.Calibration.adpcm_bitstream
      ~make:(Rvi_harness.Jobs.make_virtual Rvi_harness.Jobs.Adpcm)
  in
  let collect = Mrc.record p.Platform.imu in
  let wave = Platform.trace p in
  let in_buf = Platform.alloc_bytes p input in
  let out_buf =
    Platform.alloc p (Rvi_coproc.Adpcm_ref.decoded_size (Bytes.length input))
  in
  let ok = function Ok () -> () | Error _ -> failwith "setup failed" in
  ok (Rvi_core.Api.fpga_load p.Platform.api Rvi_harness.Calibration.adpcm_bitstream);
  ok
    (Rvi_core.Api.fpga_map_object p.Platform.api ~id:0 ~buf:in_buf
       ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Rvi_core.Api.fpga_map_object p.Platform.api ~id:1 ~buf:out_buf
       ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  ok (Rvi_core.Api.fpga_execute p.Platform.api ~params:[ Bytes.length input ]);
  let refs = collect () in
  let frames = Rvi_mem.Dpram.n_pages p.Platform.dpram in
  Printf.printf "recorded %d page references over %d distinct pages\n\n"
    (Array.length refs) (Mrc.distinct_pages refs);
  let lru = Mrc.lru_misses refs ~max_frames:12 in
  Printf.printf "%6s %10s %10s %10s\n" "frames" "LRU" "FIFO" "OPT";
  for k = 1 to 12 do
    Printf.printf "%6d %10d %10d %10d%s\n" k
      lru.(k - 1)
      (Mrc.fifo_misses refs ~frames:k)
      (Mrc.opt_misses refs ~frames:k)
      (if k = frames then "   <- this device" else "")
  done;
  let vim_faults =
    Rvi_sim.Stats.get (Rvi_core.Vim.stats p.Platform.vim) "faults"
  in
  let premapped =
    Rvi_sim.Stats.get (Rvi_core.Vim.stats p.Platform.vim) "premapped"
  in
  Printf.printf
    "\nshipped VIM (eager + FIFO): %d placements (%d pre-mapped + %d faults)\n"
    (premapped + vim_faults) premapped vim_faults;
  (* Signal-level artefacts. *)
  let vcd = Rvi_hw.Wave.to_vcd ~timescale_ps:25_000 wave in
  let oc = open_out "adpcm_capture.vcd" in
  output_string oc vcd;
  close_out oc;
  Printf.printf "\nwrote adpcm_capture.vcd (%d cycles)\n" (Rvi_hw.Wave.length wave);
  let design =
    Rvi_core.Vhdl_gen.make ~name:"adpcmdecode" ~device:cfg.Rvi_harness.Config.device ()
  in
  (* The full capture would be an enormous testbench; take a window. *)
  let tb = Rvi_core.Vhdl_gen.testbench_vhdl ~max_cycles:2000 design ~wave in
  let oc = open_out "adpcmdecode_tb.vhd" in
  output_string oc tb;
  close_out oc;
  Printf.printf "wrote adpcmdecode_tb.vhd (co-simulation vectors)\n";
  (* Structured event trace: both exporter formats, then answer "where did
     the fault-service time go?" from the spans themselves. *)
  match cfg.Rvi_harness.Config.trace with
  | None -> ()
  | Some tr ->
    let events = Trace.events tr in
    Export.write_file "adpcm_trace.json" (Export.to_chrome events);
    Export.write_file "adpcm_trace.jsonl" (Export.to_jsonl events);
    let reread =
      let ic = open_in "adpcm_trace.jsonl" in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Export.of_jsonl s
    in
    Printf.printf
      "wrote adpcm_trace.json (Chrome trace_event; load in Perfetto)\n";
    Printf.printf "wrote adpcm_trace.jsonl (%d events, %d re-read back)\n"
      (List.length events) (List.length reread);
    let us e = Rvi_sim.Simtime.to_us e.Trace.dur in
    let total pred =
      List.fold_left
        (fun acc e -> if pred e.Trace.kind then acc +. us e else acc)
        0.0 events
    in
    let faults =
      List.filter
        (fun e -> match e.Trace.kind with Trace.Fault _ -> true | _ -> false)
        events
    in
    Printf.printf
      "\nfault service from the trace: %d spans, %.1f us total\n\
      \  SWimu decode %.1f us + SWdp copy %.1f us + TLB update %.1f us\n"
      (List.length faults)
      (total (function Trace.Fault _ -> true | _ -> false))
      (total (function Trace.Decode -> true | _ -> false))
      (total (function Trace.Copy _ -> true | _ -> false))
      (total (function Trace.Tlb_update _ -> true | _ -> false));
    match
      List.fold_left
        (fun acc e ->
          match acc with Some w when us w >= us e -> acc | _ -> Some e)
        None faults
    with
    | Some e -> Format.printf "slowest fault: %a@." Trace.pp_event e
    | None -> ()
