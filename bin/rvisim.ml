(* rvisim — command-line front-end to the reproduction.

   Examples:
     rvisim fig8
     rvisim fig9 --device epxa4 --policy lru --sizes 4,8,16,32,64
     rvisim run --app idea --impl vim --size 16384 --csv
     rvisim all *)

open Cmdliner

let device_arg =
  let parse s =
    match Rvi_fpga.Device.by_name s with
    | Some d -> Ok d
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown device %S (known: %s)" s
              (String.concat ", "
                 (List.map
                    (fun d -> d.Rvi_fpga.Device.name)
                    Rvi_fpga.Device.all))))
  in
  let print ppf d = Format.fprintf ppf "%s" d.Rvi_fpga.Device.name in
  Arg.conv (parse, print)

let device =
  Arg.(
    value
    & opt device_arg Rvi_fpga.Device.epxa1
    & info [ "device" ] ~docv:"NAME" ~doc:"Target device (EPXA1/EPXA4/EPXA10).")

let policy =
  Arg.(
    value & opt string "fifo"
    & info [ "policy" ] ~docv:"NAME"
        ~doc:"Replacement policy: fifo, lru, random, second-chance.")

let transfer =
  Arg.(
    value
    & opt (enum [ ("double", Rvi_core.Vim.Double); ("single", Rvi_core.Vim.Single) ])
        Rvi_core.Vim.Double
    & info [ "transfer" ] ~docv:"MODE"
        ~doc:"Page transfer mode: double (paper's naive VIM) or single.")

let prefetch =
  Arg.(
    value & opt int 0
    & info [ "prefetch" ] ~docv:"DEPTH"
        ~doc:"Sequential prefetch depth (0 disables).")

let pipelined =
  Arg.(
    value & flag
    & info [ "pipelined-imu" ] ~doc:"Use the pipelined IMU variant.")

let tlb_entries =
  Arg.(
    value & opt (some int) None
    & info [ "tlb" ] ~docv:"N" ~doc:"TLB entries (default: one per page).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let translation_arg =
  let parse s =
    match Rvi_core.Translation_mode.of_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown translation mode %S (known: %s)" s
              (String.concat ", "
                 (List.map Rvi_core.Translation_mode.name
                    Rvi_core.Translation_mode.all))))
  in
  let print ppf m = Format.fprintf ppf "%s" (Rvi_core.Translation_mode.name m) in
  Arg.conv (parse, print)

let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit rows as CSV.")

let spec_arg =
  let parse s =
    match Rvi_inject.Spec.parse s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf s = Format.fprintf ppf "%s" (Rvi_inject.Spec.to_string s) in
  Arg.conv (parse, print)

let inject =
  Arg.(
    value
    & opt (some spec_arg) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          ("Enable fault injection. " ^ Rvi_inject.Spec.grammar
         ^ " Kinds: "
          ^ String.concat ", "
              (List.map Rvi_inject.Fault.name Rvi_inject.Fault.all)
          ^ "."))

let watchdog_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "watchdog" ] ~docv:"MS"
        ~doc:
          "VIM watchdog in simulated milliseconds (default: 2 under \
           injection, 30000 otherwise).")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit rows as JSON.")

let jobs =
  Arg.(
    value
    & opt int (Rvi_par.Par.recommended_domains ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard independent runs over $(docv) domains (default: the \
           recommended domain count of this machine). Results are \
           deterministic: identical whatever $(docv) is.")

let sizes_kb =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "sizes" ] ~docv:"KB,KB,..." ~doc:"Input sizes in KB.")

let config device policy transfer prefetch pipelined tlb_entries seed =
  let base = Rvi_harness.Config.default () in
  let cfg =
    {
      base with
      Rvi_harness.Config.device;
      transfer;
      prefetch =
        (if prefetch > 0 then Rvi_core.Prefetch.sequential ~depth:prefetch
         else Rvi_core.Prefetch.off);
      imu_kind =
        (if pipelined then Rvi_harness.Config.Pipelined
         else Rvi_harness.Config.Four_cycle);
      tlb_entries;
      seed;
    }
  in
  Rvi_harness.Config.with_policy cfg policy

let debug =
  Arg.(
    value & flag
    & info [ "debug" ] ~doc:"Print VIM debug logging (page faults, flushes).")

let setup_logs enabled =
  if enabled then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let config device policy transfer prefetch pipelined tlb_entries seed debug =
  setup_logs debug;
  config device policy transfer prefetch pipelined tlb_entries seed

let config_term =
  Term.(
    const config $ device $ policy $ transfer $ prefetch $ pipelined
    $ tlb_entries $ seed $ debug)

let ppf = Format.std_formatter

let emit ?(json = false) ~csv rows =
  if csv then print_string (Rvi_harness.Report.csv rows);
  if json then print_string (Rvi_harness.Report.json rows)

let fig7_cmd =
  let vcd_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Also dump the capture as a VCD file.")
  in
  let run pipelined vcd_out =
    let f = Rvi_harness.Experiments.fig7 ~pipelined ppf () in
    match vcd_out with
    | Some path ->
      let oc = open_out path in
      output_string oc f.Rvi_harness.Experiments.vcd;
      close_out oc;
      Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Figure 7: coprocessor read-access timing diagram.")
    Term.(const run $ pipelined $ vcd_out)

let fig8_cmd =
  let run cfg csv json sizes =
    let rows = Rvi_harness.Experiments.fig8 ?sizes_kb:sizes ppf cfg in
    emit ~json ~csv rows
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Figure 8: adpcmdecode, software vs VIM-based.")
    Term.(const run $ config_term $ csv $ json_flag $ sizes_kb)

let fig9_cmd =
  let run cfg csv json sizes =
    let rows = Rvi_harness.Experiments.fig9 ?sizes_kb:sizes ppf cfg in
    emit ~json ~csv rows
  in
  Cmd.v
    (Cmd.info "fig9"
       ~doc:"Figure 9: IDEA, software vs normal coprocessor vs VIM-based.")
    Term.(const run $ config_term $ csv $ json_flag $ sizes_kb)

let overheads_cmd =
  let run cfg = ignore (Rvi_harness.Experiments.overheads ppf cfg) in
  Cmd.v
    (Cmd.info "overheads" ~doc:"The textual overhead claims of section 4.1.")
    Term.(const run $ config_term)

let ablations_cmd =
  let run cfg jobs =
    ignore (Rvi_harness.Experiments.ablation_policy ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_prefetch ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_pipelined_imu ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_transfer ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_tlb_size ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_chunked_normal ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_dma ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_overlap ~jobs ppf cfg);
    ignore (Rvi_harness.Experiments.ablation_tlb_org ~jobs ppf cfg)
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"All design-choice ablations from DESIGN.md.")
    Term.(const run $ config_term $ jobs)

let ablate_cmd =
  let translation_flag =
    Arg.(
      value & flag
      & info [ "translation" ]
          ~doc:
            "Compare the paper's per-object translation against the \
             IOMMU/SVA mode (two-level TLB + page-table walker) on all four \
             workloads.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Cheap CI variant: one workload per translation mode, asserting \
             both verify and that only the SVA run exercises the walker. \
             Exits non-zero on any violation.")
  in
  let run cfg jobs translation smoke =
    if not translation then begin
      Format.eprintf
        "rvisim ablate: select an ablation axis (try --translation)@.";
      exit 2
    end;
    let points =
      Rvi_harness.Experiments.ablation_translation ~jobs ~smoke ppf cfg
    in
    if smoke then begin
      let bad = ref [] in
      List.iter
        (fun (pt : Rvi_harness.Experiments.translation_point) ->
          let r = pt.Rvi_harness.Experiments.row in
          if not (Rvi_harness.Report.ok r) then
            bad := Printf.sprintf "%s: run failed or unverified"
                     pt.Rvi_harness.Experiments.label
                   :: !bad;
          let walks = pt.Rvi_harness.Experiments.walks in
          match pt.Rvi_harness.Experiments.mode with
          | Rvi_core.Translation_mode.Paper_objects ->
            if walks <> 0 then
              bad := Printf.sprintf "%s: paper mode touched the walker"
                       pt.Rvi_harness.Experiments.label
                     :: !bad
          | Rvi_core.Translation_mode.Iommu_sva ->
            if walks = 0 then
              bad := Printf.sprintf "%s: SVA run never walked"
                       pt.Rvi_harness.Experiments.label
                     :: !bad)
        points;
      match !bad with
      | [] -> Format.fprintf ppf "sva-smoke ok (%d runs)@." (List.length points)
      | msgs ->
        List.iter (Format.eprintf "sva-smoke: %s@.") (List.rev msgs);
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:
         "Targeted ablation comparisons. Currently: --translation, the \
          paper-objects vs IOMMU/SVA translation study.")
    Term.(const run $ config_term $ jobs $ translation_flag $ smoke)

let portability_cmd =
  let run cfg = ignore (Rvi_harness.Experiments.portability ppf cfg) in
  Cmd.v
    (Cmd.info "portability"
       ~doc:"The same binaries across the EPXA device family.")
    Term.(const run $ config_term)

let run_cmd =
  let app_arg =
    Arg.(
      required
      & opt
          (some
             (enum
                [
                  ("adpcm", `Adpcm);
                  ("idea", `Idea);
                  ("vecadd", `Vecadd);
                  ("fir", `Fir);
                ]))
          None
      & info [ "app" ] ~docv:"NAME"
          ~doc:"Application: adpcm, idea, vecadd or fir.")
  in
  let version =
    Arg.(
      value
      & opt (enum [ ("sw", `Sw); ("vim", `Vim); ("normal", `Normal) ]) `Vim
      & info [ "impl" ] ~docv:"V" ~doc:"Implementation: sw, vim or normal.")
  in
  let size =
    Arg.(
      value & opt int 4096
      & info [ "size" ] ~docv:"BYTES" ~doc:"Input size in bytes.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a structured event trace of the run to $(docv).")
  in
  let trace_format =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Chrome
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace format: chrome (a trace_event JSON document loadable in \
             Perfetto or about://tracing) or jsonl (one flat JSON object per \
             event, round-trippable).")
  in
  let translation =
    Arg.(
      value
      & opt translation_arg Rvi_core.Translation_mode.Paper_objects
      & info [ "translation" ] ~docv:"MODE"
          ~doc:
            "Address translation: paper-objects (the paper's per-object page \
             lists, default) or iommu-sva (shared virtual addressing through \
             an L1+L2 TLB and a page-table walker).")
  in
  let run cfg csv app version size trace_out trace_format inject watchdog_ms
      translation =
    let cfg = { cfg with Rvi_harness.Config.translation } in
    let cfg =
      if trace_out = None then cfg
      else
        {
          cfg with
          Rvi_harness.Config.trace = Some (Rvi_obs.Trace.create ());
        }
    in
    let cfg =
      match inject with
      | None -> cfg
      | Some spec ->
        {
          cfg with
          Rvi_harness.Config.injector =
            Some
              (Rvi_inject.Injector.create ~seed:cfg.Rvi_harness.Config.seed
                 ~spec);
          watchdog = Rvi_harness.Faults.default_watchdog;
        }
    in
    let cfg =
      match watchdog_ms with
      | None -> cfg
      | Some ms ->
        {
          cfg with
          Rvi_harness.Config.watchdog =
            Rvi_sim.Simtime.of_us (int_of_float (ms *. 1000.));
        }
    in
    let row =
      match app with
      | `Adpcm -> (
        let input =
          Rvi_harness.Workload.adpcm_stream ~seed:cfg.Rvi_harness.Config.seed
            ~bytes:size
        in
        match version with
        | `Sw -> Rvi_harness.Runner.adpcm_sw cfg ~input
        | `Vim -> Rvi_harness.Runner.adpcm_vim cfg ~input
        | `Normal -> Rvi_harness.Runner.adpcm_normal cfg ~input)
      | `Idea -> (
        let size = size - (size mod 8) in
        let key = Rvi_harness.Workload.idea_key ~seed:cfg.Rvi_harness.Config.seed in
        let input =
          Rvi_harness.Workload.idea_plaintext ~seed:cfg.Rvi_harness.Config.seed
            ~bytes:size
        in
        match version with
        | `Sw -> Rvi_harness.Runner.idea_sw cfg ~key ~input
        | `Vim -> Rvi_harness.Runner.idea_vim cfg ~key ~input
        | `Normal -> Rvi_harness.Runner.idea_normal cfg ~key ~input)
      | `Fir -> (
        let size = size - (size mod 2) in
        let coeffs = Rvi_harness.Workload.fir_coeffs ~taps:16 in
        let input =
          Rvi_harness.Workload.fir_signal ~seed:cfg.Rvi_harness.Config.seed
            ~bytes:size
        in
        match version with
        | `Sw -> Rvi_harness.Runner.fir_sw cfg ~coeffs ~shift:12 ~input
        | `Vim -> Rvi_harness.Runner.fir_vim cfg ~coeffs ~shift:12 ~input
        | `Normal -> Rvi_harness.Runner.fir_normal cfg ~coeffs ~shift:12 ~input)
      | `Vecadd -> (
        let n = size / 8 in
        let a, b =
          Rvi_harness.Workload.vectors ~seed:cfg.Rvi_harness.Config.seed ~n
        in
        match version with
        | `Sw -> Rvi_harness.Runner.vecadd_sw cfg ~a ~b
        | `Vim | `Normal -> Rvi_harness.Runner.vecadd_vim cfg ~a ~b)
    in
    Rvi_harness.Report.print_table ppf [ row ];
    emit ~csv [ row ];
    (match cfg.Rvi_harness.Config.injector with
    | Some inj ->
      Format.fprintf ppf "injected %d faults (seed %d)@."
        (Rvi_inject.Injector.injected_total inj)
        (Rvi_inject.Injector.seed inj)
    | None -> ());
    (match (trace_out, cfg.Rvi_harness.Config.trace) with
    | Some path, Some tr ->
      let events = Rvi_obs.Trace.events tr in
      let contents =
        match trace_format with
        | `Jsonl -> Rvi_obs.Export.to_jsonl events
        | `Chrome -> Rvi_obs.Export.to_chrome events
      in
      (try
         Rvi_obs.Export.write_file path contents;
         Printf.printf "wrote %s (%d events%s)\n" path (List.length events)
           (let d = Rvi_obs.Trace.dropped tr in
            if d > 0 then Printf.sprintf ", %d dropped" d else "")
       with Sys_error msg ->
         Printf.eprintf "rvisim: cannot write trace: %s\n" msg;
         exit 1)
    | _ -> ());
    let acceptable =
      Rvi_harness.Report.ok row
      ||
      match row.Rvi_harness.Report.outcome with
      | Rvi_harness.Report.Degraded _ -> row.Rvi_harness.Report.verified
      | _ -> false
    in
    if not acceptable then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one application/version/size point.")
    Term.(
      const run $ config_term $ csv $ app_arg $ version $ size $ trace_out
      $ trace_format $ inject $ watchdog_ms $ translation)

let ext_fir_cmd =
  let run cfg csv sizes =
    let rows = Rvi_harness.Experiments.ext_fir ?sizes_kb:sizes ppf cfg in
    emit ~csv rows
  in
  Cmd.v
    (Cmd.info "ext-fir" ~doc:"Extension: the FIR filter application.")
    Term.(const run $ config_term $ csv $ sizes_kb)

let miss_curve_cmd =
  let run cfg = ignore (Rvi_harness.Experiments.miss_curve ppf cfg) in
  Cmd.v
    (Cmd.info "miss-curve"
       ~doc:"Extension: miss-ratio curve from the IMU access trace.")
    Term.(const run $ config_term)

let ext_cbc_cmd =
  let run cfg csv =
    let rows = Rvi_harness.Experiments.ext_cbc ppf cfg in
    emit ~csv rows
  in
  Cmd.v
    (Cmd.info "ext-cbc"
       ~doc:"Extension: ECB/CBC modes on the pipelined IDEA core.")
    Term.(const run $ config_term $ csv)

let multiprog_cmd =
  let jobs_per_app =
    Arg.(
      value & opt int 4
      & info [ "jobs-per-app" ] ~docv:"N" ~doc:"Jobs per application kind.")
  in
  let run cfg jobs_per_app =
    ignore (Rvi_svc.Batch.multiprogramming ~jobs_per_app ppf cfg)
  in
  Cmd.v
    (Cmd.info "multiprog"
       ~doc:"Extension: lattice scheduling of a mixed job batch.")
    Term.(const run $ config_term $ jobs_per_app)

let ext_oracle_cmd =
  let run cfg = ignore (Rvi_harness.Experiments.ext_oracle ppf cfg) in
  Cmd.v
    (Cmd.info "ext-oracle"
       ~doc:
         "Extension: profile-guided Belady replacement (the 'efficient \
          allocation algorithms' of the paper's conclusion).")
    Term.(const run $ config_term)

let ext_dual_cmd =
  let run cfg = ignore (Rvi_harness.Experiments.ext_dual ppf cfg) in
  Cmd.v
    (Cmd.info "ext-dual"
       ~doc:"Extension: two coprocessors behind one IMU via the arbiter.")
    Term.(const run $ config_term)

let sensitivity_cmd =
  let run cfg = ignore (Rvi_harness.Experiments.sensitivity ppf cfg) in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Robustness of the conclusions to the AHB copy-cost calibration.")
    Term.(const run $ config_term)

let sweeps_cmd =
  let run cfg =
    ignore (Rvi_harness.Experiments.sweep_page_size ppf cfg);
    ignore (Rvi_harness.Experiments.sweep_memory_size ppf cfg)
  in
  Cmd.v
    (Cmd.info "sweeps"
       ~doc:"Page-size and memory-size sweeps of the interface geometry.")
    Term.(const run $ config_term)

let emit_stubs_cmd =
  let outdir =
    Arg.(
      value & opt string "stubs"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created).")
  in
  let run outdir =
    if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
    List.iter
      (fun spec ->
        List.iter
          (fun (file, contents) ->
            let path = Filename.concat outdir file in
            let oc = open_out path in
            output_string oc contents;
            close_out oc;
            Printf.printf "wrote %s\n" path)
          (Rvi_core.Stub_gen.emit_all spec))
      Rvi_core.Stub_gen.[ vecadd_spec; adpcm_spec; idea_spec; fir_spec ]
  in
  Cmd.v
    (Cmd.info "emit-stubs"
       ~doc:"Generate the C application stubs for the shipped coprocessors.")
    Term.(const run $ outdir)

let emit_vhdl_cmd =
  let entity_name =
    Arg.(
      value & opt string "my_coproc"
      & info [ "name" ] ~docv:"IDENT" ~doc:"Coprocessor entity name.")
  in
  let outdir =
    Arg.(
      value & opt string "vhdl"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created).")
  in
  let run device pipelined name outdir =
    let imu_config =
      if pipelined then Rvi_core.Imu.pipelined_config
      else Rvi_core.Imu.default_config
    in
    let design = Rvi_core.Vhdl_gen.make ~name ~device ~imu_config () in
    if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
    List.iter
      (fun (file, contents) ->
        let path = Filename.concat outdir file in
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s\n" path)
      (Rvi_core.Vhdl_gen.emit_all design)
  in
  Cmd.v
    (Cmd.info "emit-vhdl"
       ~doc:
         "Generate the VHDL interface skeletons (package, portable \
          coprocessor entity, platform IMU entity, stripe wrapper).")
    Term.(const run $ device $ pipelined $ entity_name $ outdir)

let faults_cmd =
  let runs =
    Arg.(
      value & opt int 1000
      & info [ "runs" ] ~docv:"N"
          ~doc:"Campaign size (per sweep cell with $(b,--sweep)).")
  in
  let sweep_flag =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Sweep injection-rate factor (0.5, 1, 2, 4) against recovery \
             policy (0, 1, 3 retries) instead of one campaign.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-run results as CSV.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the accumulated event trace of every run as JSONL \
             (inject/retry/recover/degrade events included).")
  in
  let exec_retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Whole-execution retries before degrading to software.")
  in
  let run seed runs sweep_flag inject exec_retries csv_out trace_out jobs =
    let trace = Option.map (fun _ -> Rvi_obs.Trace.create ()) trace_out in
    let write_trace () =
      match (trace_out, trace) with
      | Some path, Some tr ->
        let events = Rvi_obs.Trace.events tr in
        Rvi_obs.Export.write_file path (Rvi_obs.Export.to_jsonl events);
        Printf.printf "wrote %s (%d events)\n" path (List.length events)
      | _ -> ()
    in
    let ok =
      if sweep_flag then begin
        let cells = Rvi_harness.Faults.sweep ?trace ~jobs ~runs ~seed () in
        Rvi_harness.Faults.print_sweep ppf cells;
        List.for_all
          (fun c ->
            Rvi_harness.Faults.passed c.Rvi_harness.Faults.cell_summary)
          cells
      end
      else begin
        let spec =
          match inject with
          | Some spec -> spec
          | None -> Rvi_inject.Spec.all ()
        in
        let progress r =
          if (r.Rvi_harness.Faults.index + 1) mod 100 = 0 then
            Printf.eprintf "%d/%d\n%!" (r.Rvi_harness.Faults.index + 1) runs
        in
        let results =
          Rvi_harness.Faults.campaign ?trace ~spec ~exec_retries ~progress
            ~jobs ~runs ~seed ()
        in
        let s = Rvi_harness.Faults.summarize results in
        Rvi_harness.Faults.print_summary ppf s;
        (match csv_out with
        | Some path ->
          let oc = open_out path in
          output_string oc (Rvi_harness.Faults.csv results);
          close_out oc;
          Printf.printf "wrote %s\n" path
        | None -> ());
        Rvi_harness.Faults.passed s
      end
    in
    write_trace ();
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection campaign: seeded runs under injected hardware \
          faults, classified as ok/recovered/degraded/failed/crashed. Exits \
          non-zero on any crash or unverified degraded output.")
    Term.(
      const run $ seed $ runs $ sweep_flag $ inject $ exec_retries $ csv_out
      $ trace_out $ jobs)

let chaos_cmd =
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N"
          ~doc:"Scenarios to generate and run (per batch with $(b,--soak)).")
  in
  let soak =
    Arg.(
      value
      & opt (some float) None
      & info [ "soak" ] ~docv:"SECS"
          ~doc:
            "Keep running $(b,--count)-sized batches (reseeded per batch) \
             until SECS of host time have elapsed.")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Delta-debug every violating scenario to a minimal repro with \
             the same classification before writing the corpus.")
  in
  let promote =
    Arg.(
      value & flag
      & info [ "promote" ]
          ~doc:
            "Also write the (shrunk) repros into test/corpus/, where the \
             test suite replays them as pinned regressions.")
  in
  let replay =
    Arg.(
      value
      & opt_all string []
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a serialised corpus scenario and check its \
             classification against the file's expect header (repeatable; \
             disables generation).")
  in
  let corpus_dir =
    Arg.(
      value
      & opt string "results/corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Corpus output directory.")
  in
  let run seed count jobs soak shrink_flag promote replay corpus_dir =
    let module Chaos = Rvi_scenario.Chaos in
    let module Scenario = Rvi_scenario.Scenario in
    if replay <> [] then begin
      let ok =
        List.for_all
          (fun path ->
            match Chaos.replay path with
            | Ok r ->
              Printf.printf "%s: %s (as expected)\n" path
                (Chaos.classification r);
              true
            | Error e ->
              Printf.printf "%s\n" e;
              false)
          replay
      in
      if not ok then exit 1
    end
    else begin
      let progress r =
        if (r.Chaos.index + 1) mod 100 = 0 then
          Printf.eprintf "%d/%d\n%!" (r.Chaos.index + 1) count
      in
      (* One batch per seed; --soak reseeds batches until the budget is
         spent. Every batch is reproducible from its printed seed. *)
      let batches =
        match soak with
        | None -> [ seed ]
        | Some secs ->
          let t0 = Unix.gettimeofday () in
          let rec go acc b =
            if Unix.gettimeofday () -. t0 >= secs then List.rev acc
            else begin
              let bseed = seed + b in
              Printf.eprintf "soak batch %d (seed %d)\n%!" b bseed;
              ignore (Chaos.campaign ~jobs ~progress ~seed:bseed ~count ());
              go (bseed :: acc) (b + 1)
            end
          in
          (* The last batch is re-run below for reporting; cheap relative
             to the soak budget and keeps one code path. *)
          let seeds = go [] 0 in
          if seeds = [] then [ seed ] else seeds
      in
      let violations = ref [] in
      List.iter
        (fun bseed ->
          let reports = Chaos.campaign ~jobs ~progress ~seed:bseed ~count () in
          Chaos.print_summary ppf (Chaos.summarize reports);
          List.iter
            (fun r ->
              if Chaos.classification r <> "pass" then
                violations := (bseed, r) :: !violations)
            reports)
        (match soak with None -> batches | Some _ -> [ List.hd (List.rev batches) ]);
      let violations = List.rev !violations in
      List.iter
        (fun (bseed, r) ->
          let cls = Chaos.classification r in
          Printf.printf "violation (seed %d, scenario %d): %s\n  %s\n" bseed
            r.Chaos.index cls
            (Scenario.to_string r.Chaos.scenario);
          let final =
            if shrink_flag then begin
              let min_sc = Chaos.shrink ~cls r.Chaos.scenario in
              let shrunk = Chaos.run ~index:r.Chaos.index min_sc in
              Printf.printf "  shrunk: %s\n" (Scenario.to_string min_sc);
              shrunk
            end
            else r
          in
          let paths =
            Chaos.save_corpus ~dir:corpus_dir ~campaign_seed:bseed [ final ]
          in
          List.iter (Printf.printf "  wrote %s\n") paths;
          if promote then
            List.iter
              (Printf.printf "  promoted %s\n")
              (Chaos.save_corpus ~dir:"test/corpus" ~campaign_seed:bseed
                 [ final ]))
        violations;
      if violations <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Generative chaos campaign: PRNG-derived scenarios (app mix x \
          geometry x translation x policy x fault plan x recovery budget) \
          run against the declared invariants — no crash, consistency, \
          bit-exact output, convergent recovery, progress, stat sanity. \
          Violations are delta-debugged to minimal repros and serialised \
          to the corpus. Exits non-zero on any violation.")
    Term.(
      const run $ seed $ count $ jobs $ soak $ shrink_flag $ promote $ replay
      $ corpus_dir)

let bench_cmd =
  let runs =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Campaign size to benchmark.")
  in
  let out =
    Arg.(
      value
      & opt string Rvi_harness.Bench_campaign.default_path
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Trajectory file to append the JSON point to.")
  in
  let gate =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"FRAC"
          ~doc:
            "Fail (exit 1) if serial runs/sec lands below (1 - FRAC) times \
             the newest point already in the trajectory file — the \
             committed baseline. E.g. --gate 0.2 tolerates a 20% \
             regression.")
  in
  let sva =
    Arg.(
      value & flag
      & info [ "sva" ]
          ~doc:
            "Also benchmark the campaign under IOMMU/SVA translation and \
             append it as a second trajectory point (series \
             \"faults-campaign-sva\", gated against its own series' \
             baseline). The SVA row is appended first so the file's newest \
             row stays the paper-mode series.")
  in
  let run seed runs jobs out gate sva =
    let bench_one translation =
      let r = Rvi_harness.Bench_campaign.run ~runs ~seed ~translation ~jobs () in
      Rvi_harness.Bench_campaign.print ppf r;
      (* Baseline read before this point is appended, filtered to the
         point's own series — SVA throughput never gates paper mode. *)
      let baseline =
        Rvi_harness.Bench_campaign.last_serial_rps ~path:out
          ~benchmark:r.Rvi_harness.Bench_campaign.benchmark ()
      in
      let path = Rvi_harness.Bench_campaign.append ~path:out r in
      Printf.printf "appended trajectory point to %s\n" path;
      if not r.Rvi_harness.Bench_campaign.deterministic then exit 1;
      match (gate, baseline) with
      | Some tol, Some base ->
        let floor = (1.0 -. tol) *. base in
        let rps = r.Rvi_harness.Bench_campaign.serial_runs_per_sec in
        if rps < floor then begin
          Printf.eprintf
            "perf regression: serial %.1f runs/s < %.1f (baseline %.1f - %g%% \
             tolerance)\n"
            rps floor base (tol *. 100.);
          exit 1
        end
        else
          Printf.printf "perf gate ok: serial %.1f runs/s >= %.1f (baseline \
                         %.1f)\n"
            rps floor base
      | Some _, None ->
        Printf.printf "perf gate skipped: no committed baseline for %s in %s\n"
          r.Rvi_harness.Bench_campaign.benchmark out
      | None, _ -> ()
    in
    if sva then bench_one Rvi_core.Translation_mode.Iommu_sva;
    bench_one Rvi_core.Translation_mode.Paper_objects
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Benchmark the parallel campaign runner: wall-clock, runs/sec and \
          speedup of --jobs N against --jobs 1 on the same seeded campaign, \
          appended as one trajectory point to BENCH_campaign.json. Exits \
          non-zero if the parallel run classifies any run differently (a \
          determinism bug) or if --gate detects a throughput regression.")
    Term.(const run $ seed $ runs $ jobs $ out $ gate $ sva)

let serve_cmd =
  let tenants =
    Arg.(
      value & opt int 8
      & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants.")
  in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"M"
          ~doc:"Total requests across all tenants (per campaign cell).")
  in
  let rate =
    Arg.(
      value & opt int 0
      & info [ "rate" ] ~docv:"HZ"
          ~doc:
            "Open-loop aggregate arrival rate in requests/second; 0 (the \
             default) selects the closed loop (one outstanding request per \
             tenant).")
  in
  let policy =
    Arg.(
      value
      & opt
          (enum
             [
               ("fcfs", [ Rvi_svc.Sched_policy.Fcfs ]);
               ("grouped", [ Rvi_svc.Sched_policy.Grouped ]);
               ("wfq", [ Rvi_svc.Sched_policy.Wfq ]);
               ("all", Rvi_svc.Sched_policy.all);
             ])
          Rvi_svc.Sched_policy.all
      & info [ "policy" ] ~docv:"NAME"
          ~doc:"Dispatch policy: fcfs, grouped, wfq or all (the default).")
  in
  let translation =
    Arg.(
      value
      & opt
          (enum
             [
               ("paper", [ Rvi_core.Translation_mode.Paper_objects ]);
               ("sva", [ Rvi_core.Translation_mode.Iommu_sva ]);
               ("both", Rvi_core.Translation_mode.all);
             ])
          [ Rvi_core.Translation_mode.Paper_objects ]
      & info [ "translation" ] ~docv:"MODE"
          ~doc:"Translation mode(s): paper (default), sva or both.")
  in
  let quantum =
    Arg.(
      value & opt int 50
      & info [ "quantum" ] ~docv:"US"
          ~doc:"Preemption quantum in simulated microseconds.")
  in
  let bytes =
    Arg.(
      value & opt int 256
      & info [ "bytes" ] ~docv:"B"
          ~doc:
            "Nominal request input size; each request draws uniformly in \
             [B/2, 3B/2) and rounds to its application's alignment.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-request rows to $(docv).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Append one trajectory point per campaign cell to $(docv) \
             (BENCH_serve.json format).")
  in
  let gate =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"FRAC"
          ~doc:
            "With --json: fail (exit 1) if a cell's host runs/sec falls \
             below (1 - FRAC) times its series' newest committed point, or \
             its simulated p99 grows past (1 + FRAC) times it.")
  in
  let verify_det =
    Arg.(
      value & flag
      & info [ "verify-determinism" ]
          ~doc:
            "Re-run the campaign serially and require a digest-identical \
             per-request classification (only meaningful with --jobs > 1).")
  in
  let run seed jobs tenants requests rate policies translations quantum bytes
      csv_out json_out gate verify_det =
    let cells =
      Rvi_svc.Serve.cells ~policies ~translations ~seed ~tenants ~requests
        ~rate_hz:rate ~quantum_us:quantum ~bytes
    in
    let results = Rvi_svc.Serve.campaign ~jobs cells in
    let deterministic =
      if verify_det && jobs > 1 then
        Rvi_svc.Serve.digest (Rvi_svc.Serve.campaign ~jobs:1 cells)
        = Rvi_svc.Serve.digest results
      else true
    in
    List.iter
      (fun (r : Rvi_svc.Serve.cell_result) ->
        Rvi_svc.Slo.print ppf
          ~label:(Rvi_svc.Serve.cell_label r.Rvi_svc.Serve.cr_cell)
          r.Rvi_svc.Serve.cr_report)
      results;
    (match csv_out with
    | Some path ->
      let oc = open_out path in
      output_string oc Rvi_svc.Serve.csv_header;
      List.iter
        (fun (r : Rvi_svc.Serve.cell_result) ->
          output_string oc r.Rvi_svc.Serve.cr_csv)
        results;
      close_out oc;
      Printf.printf "wrote per-request rows to %s\n" path
    | None -> ());
    let violations = List.concat_map Rvi_svc.Serve.violations results in
    List.iter (fun v -> Printf.eprintf "violation: %s\n" v) violations;
    let gate_failures =
      match json_out with
      | None -> []
      | Some path ->
        List.concat_map
          (fun (r : Rvi_svc.Serve.cell_result) ->
            let p = Rvi_svc.Bench_serve.of_result ~jobs ~deterministic r in
            (* baseline read before this point lands in the file *)
            let baseline =
              Rvi_svc.Bench_serve.last_baseline ~path
                ~benchmark:p.Rvi_svc.Bench_serve.benchmark
                ~tenants:p.Rvi_svc.Bench_serve.tenants
                ~requests:p.Rvi_svc.Bench_serve.requests ()
            in
            ignore (Rvi_svc.Bench_serve.append ~path p);
            Rvi_svc.Bench_serve.print ppf p;
            match gate with
            | Some tolerance ->
              Rvi_svc.Bench_serve.gate ~tolerance ~baseline p
            | None -> [])
          results
    in
    (match json_out with
    | Some path -> Printf.printf "appended trajectory points to %s\n" path
    | None -> ());
    List.iter (fun f -> Printf.eprintf "perf regression: %s\n" f) gate_failures;
    if not deterministic then begin
      Printf.eprintf
        "determinism: per-request classification DIVERGED across --jobs\n";
      exit 1
    end;
    if violations <> [] || gate_failures <> [] then exit 1;
    Printf.printf
      "serve campaign ok: %d cells, deterministic, zero invariant violations\n"
      (List.length results)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Multi-tenant service campaign: per-tenant submission/completion \
          rings feeding one physical platform through the sliced-execution \
          VIM API, under a pluggable dispatch policy (fcfs, grouped, wfq \
          with preemption). Reports per-tenant and aggregate p50/p95/p99 \
          latency, Jain's fairness index, makespan and reconfiguration \
          counts; exits non-zero on any invariant violation (starved \
          tenant, interface inconsistency, insane statistics), \
          non-determinism across --jobs, or a --gate perf regression.")
    Term.(
      const run $ seed $ jobs $ tenants $ requests $ rate $ policy
      $ translation $ quantum $ bytes $ csv_out $ json_out $ gate $ verify_det)

let all_cmd =
  let run cfg jobs =
    Rvi_harness.Experiments.all ~jobs
      ~multiprog:(fun ppf cfg -> ignore (Rvi_svc.Batch.multiprogramming ppf cfg))
      ppf cfg
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Every figure, claim and ablation in sequence.")
    Term.(const run $ config_term $ jobs)

let () =
  let doc =
    "reproduction of 'Operating System Support for Interface Virtualisation \
     of Reconfigurable Coprocessors' (DATE 2004)"
  in
  let info = Cmd.info "rvisim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig7_cmd;
            fig8_cmd;
            fig9_cmd;
            overheads_cmd;
            ablations_cmd;
            ablate_cmd;
            portability_cmd;
            ext_fir_cmd;
            ext_cbc_cmd;
            miss_curve_cmd;
            multiprog_cmd;
            sweeps_cmd;
            sensitivity_cmd;
            ext_dual_cmd;
            ext_oracle_cmd;
            emit_vhdl_cmd;
            emit_stubs_cmd;
            run_cmd;
            faults_cmd;
            chaos_cmd;
            bench_cmd;
            serve_cmd;
            all_cmd;
          ]))
