(* rvisim — command-line front-end to the reproduction.

   Examples:
     rvisim fig8
     rvisim fig9 --device epxa4 --policy lru --sizes 4,8,16,32,64
     rvisim run --app idea --impl vim --size 16384 --csv
     rvisim all *)

open Cmdliner

module Config = Rvi_harness.Config
module Scenario = Rvi_scenario.Scenario

let debug =
  Arg.(
    value & flag
    & info [ "debug" ] ~doc:"Print VIM debug logging (page faults, flushes).")

let setup_logs enabled =
  if enabled then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let tag_conv (tag : _ Scenario.tag) =
  Arg.conv' (tag.parse, fun ppf v -> Format.pp_print_string ppf (tag.print v))

(* The configuration set by the flags of the knobs whose key [only]
   accepts, each parsed by its knob's tag: the same spelling and range
   check as a scenario line. [docs] overrides a knob's doc by key. *)
let knob_flags ?(docs = []) only =
  let flag_term (type a) (k : a Scenario.knob) (flag : a Scenario.flag) =
    let default = k.get Scenario.default in
    let doc d = Option.value (List.assoc_opt k.key docs) ~default:d in
    match flag with
    | Switch { name; doc = d; on } ->
      Term.map (fun b -> k.config (if b then on else default))
        (Arg.value (Arg.flag (Arg.info [ name ] ~doc:(doc d))))
    | Opt { name; docv; doc = d; absent } ->
      let none = Option.value absent ~default:(k.tag.print default) in
      Term.map (fun v -> k.config (Option.value v ~default))
        (Arg.value
           (Arg.opt (Arg.some ~none (tag_conv k.tag)) None
              (Arg.info [ name ] ~docv ~doc:(doc d))))
  in
  List.fold_left
    (fun acc (Scenario.Knob k) ->
      match k.flag with
      | Some flag when only k.key -> Term.(const ( |> ) $ acc $ flag_term k flag)
      | _ -> acc)
    (Term.const (Config.default ()))
    Scenario.knobs

let config_flags ?docs only =
  Term.(const (fun cfg debug -> setup_logs debug; cfg) $ knob_flags ?docs only $ debug)

(* The experiments take every knob flag but --translation, which only
   [run] takes: [ablate --translation] is a switch of its own. *)
let config_term = config_flags (( <> ) "mode")
let seed = Term.map (fun cfg -> cfg.Config.seed) (knob_flags (( = ) "seed"))

let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit rows as CSV.")

let spec_arg =
  tag_conv { print = Rvi_inject.Spec.to_string; parse = Rvi_inject.Spec.parse }

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

let ppf = Format.std_formatter

let emit ?(json = false) ~csv rows =
  if csv then print_string (Rvi_harness.Report.csv rows);
  if json then print_string (Rvi_harness.Report.json rows)

(* Every file a flag names is written through here: a path that cannot be
   written is the user's error, reported with exit 1 rather than as an
   uncaught exception. *)
let writing f =
  try f ()
  with Sys_error msg ->
    Printf.eprintf "rvisim: cannot write %s\n" msg;
    exit 1

let write_file path contents =
  writing (fun () -> Rvi_obs.Export.write_file path contents)

let write_files dir files =
  writing (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  List.iter
    (fun (file, contents) ->
      let path = Filename.concat dir file in
      write_file path contents;
      Printf.printf "wrote %s\n" path)
    files

(* {1 The paper's evaluation}

   One table yields both the experiment subcommands and [rvisim all]. A
   step parses its own flags into a run from the configuration (the
   shared config flags), and lists the flag values [all] runs it with; a
   step whose experiment shards its runs also takes --jobs. Steps that
   share a name form one subcommand and run in table order; [all] runs
   every step in table order, which is how it prints the portability
   study between the two halves of the ablations. *)

type step = {
  name : string;
  doc : string;  (** the first step of a name documents the subcommand *)
  config : Rvi_harness.Config.t Term.t;
  run : (Rvi_harness.Config.t -> unit) Term.t;
  in_all : jobs:int -> Rvi_harness.Config.t -> unit;
}

let step ?(doc = "") ?(config = config_term) name args ~all run =
  {
    name;
    doc;
    config;
    run = Term.(const run $ args);
    in_all = (fun ~jobs:_ cfg -> List.iter (fun a -> run a cfg) all);
  }

(* A step whose experiment shards independent runs over domains: it also
   takes --jobs, and [all] hands it its own. *)
let sharded ?(doc = "") ?(config = config_term) name args ~all run =
  {
    name;
    doc;
    config;
    run = Term.(const (fun a jobs -> run a ~jobs) $ args $ jobs);
    in_all = (fun ~jobs cfg -> List.iter (fun a -> run a ~jobs cfg) all);
  }

let plain ?doc name run = step ?doc name (Term.const ()) ~all:[ () ] (fun () -> run)

let plain_sharded ?doc name run =
  sharded ?doc name (Term.const ()) ~all:[ () ] (fun () -> run)

let vcd_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE" ~doc:"Also dump the capture as a VCD file.")

let translation_flag =
  Arg.(
    value & flag
    & info [ "translation" ]
        ~doc:
          "Compare the paper's per-object translation against the IOMMU/SVA \
           mode (two-level TLB + page-table walker) on all four workloads.")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Cheap CI variant: one workload per translation mode, asserting both \
           verify and that only the SVA run exercises the walker. Exits \
           non-zero on any violation.")

let jobs_per_app =
  Arg.(
    value & opt int 4
    & info [ "jobs-per-app" ] ~docv:"N" ~doc:"Jobs per application kind.")

module E = Rvi_harness.Experiments

(* [imu] forces the IMU kind: [all] draws Figure 7 for both. *)
let fig7 (imu, vcd) cfg =
  let cfg =
    match imu with
    | Some imu_kind -> { cfg with Rvi_harness.Config.imu_kind }
    | None -> cfg
  in
  let f = E.fig7 ppf cfg in
  Option.iter
    (fun path ->
      write_file path f.E.vcd;
      Printf.printf "wrote %s\n" path)
    vcd

let ablate (translation, smoke) ~jobs cfg =
  if not translation then begin
    Format.eprintf "rvisim ablate: select an ablation axis (try --translation)@.";
    exit 2
  end;
  let points = E.ablation_translation ~jobs ~smoke ppf cfg in
  if smoke then begin
    let bad = ref [] in
    List.iter
      (fun (pt : E.translation_point) ->
        let r = pt.E.row in
        if not (Rvi_harness.Report.ok r) then
          bad := Printf.sprintf "%s: run failed or unverified" pt.E.label :: !bad;
        let walks = pt.E.walks in
        match pt.E.mode with
        | Rvi_core.Translation_mode.Paper_objects ->
          if walks <> 0 then
            bad := Printf.sprintf "%s: paper mode touched the walker" pt.E.label
                   :: !bad
        | Rvi_core.Translation_mode.Iommu_sva ->
          if walks = 0 then
            bad := Printf.sprintf "%s: SVA run never walked" pt.E.label :: !bad)
      points;
    match !bad with
    | [] -> Format.fprintf ppf "sva-smoke ok (%d runs)@." (List.length points)
    | msgs ->
      List.iter (Format.eprintf "sva-smoke: %s@.") (List.rev msgs);
      exit 1
  end

(* fig8 and ext-fir draw each input size from a fixed seed. *)
let fixed_inputs seeds =
  let doc = "Workload seed. The inputs are fixed (input seed " ^ seeds in
  config_flags (( <> ) "mode")
    ~docs:[ ("seed", doc ^ "), so the seed acts only through $(b,--policy) random.") ]

let steps =
  let tables =
    Term.(const (fun csv json sizes -> (csv, json, sizes)) $ csv $ json_flag $ sizes_kb)
  in
  [
    (* Figure 7's input is fixed, so it takes no --seed. *)
    step "fig7" ~doc:"Figure 7: coprocessor read-access timing diagram."
      ~config:(config_flags (fun key -> key <> "mode" && key <> "seed"))
      Term.(const (fun vcd -> (None, vcd)) $ vcd_out)
      ~all:(List.map (fun (_, imu) -> (Some imu, None)) Config.imu_kinds)
      fig7;
    sharded "fig8" ~doc:"Figure 8: adpcmdecode, software vs VIM-based."
      ~config:(fixed_inputs "100 + KB") tables
      ~all:[ (false, false, None) ] (fun (csv, json, sizes_kb) ~jobs cfg ->
        emit ~json ~csv (E.fig8 ?sizes_kb ~jobs ppf cfg));
    sharded "fig9"
      ~doc:"Figure 9: IDEA, software vs normal coprocessor vs VIM-based." tables
      ~all:[ (false, false, None) ] (fun (csv, json, sizes_kb) ~jobs cfg ->
        emit ~json ~csv (E.fig9 ?sizes_kb ~jobs ppf cfg));
    plain "overheads" ~doc:"The textual overhead claims of section 4.1."
      (fun cfg -> ignore (E.overheads ppf cfg));
    plain_sharded "ablations" ~doc:"All design-choice ablations from DESIGN.md."
      (fun ~jobs cfg ->
        ignore (E.ablation_policy ~jobs ppf cfg);
        ignore (E.ablation_prefetch ~jobs ppf cfg);
        ignore (E.ablation_pipelined_imu ~jobs ppf cfg);
        ignore (E.ablation_transfer ~jobs ppf cfg);
        ignore (E.ablation_tlb_size ~jobs ppf cfg));
    plain_sharded "portability" ~doc:"The same binaries across the EPXA device family."
      (fun ~jobs cfg -> ignore (E.portability ~jobs ppf cfg));
    plain_sharded "ablations" (fun ~jobs cfg ->
        ignore (E.ablation_chunked_normal ppf cfg);
        ignore (E.ablation_dma ~jobs ppf cfg);
        ignore (E.ablation_overlap ~jobs ppf cfg);
        ignore (E.ablation_tlb_org ~jobs ppf cfg));
    sharded "ablate"
      ~doc:
        "Targeted ablation comparisons. Currently: --translation, the \
         paper-objects vs IOMMU/SVA translation study."
      (Term.product translation_flag smoke) ~all:[ (true, false) ] ablate;
    sharded "ext-fir" ~doc:"Extension: the FIR filter application."
      ~config:(fixed_inputs "300 + KB")
      (Term.product csv sizes_kb) ~all:[ (false, None) ]
      (fun (csv, sizes_kb) ~jobs cfg -> emit ~csv (E.ext_fir ?sizes_kb ~jobs ppf cfg));
    plain "miss-curve" ~doc:"Extension: miss-ratio curve from the IMU access trace."
      (fun cfg -> ignore (E.miss_curve ppf cfg));
    step "ext-cbc" ~doc:"Extension: ECB/CBC modes on the pipelined IDEA core."
      csv ~all:[ false ] (fun csv cfg -> emit ~csv (E.ext_cbc ppf cfg));
    step "multiprog" ~doc:"Extension: lattice scheduling of a mixed job batch."
      jobs_per_app ~all:[ 4 ] (fun jobs_per_app cfg ->
        ignore (Rvi_svc.Batch.multiprogramming ~jobs_per_app ppf cfg));
    plain "sweeps"
      ~doc:"Page-size and memory-size sweeps of the interface geometry."
      (fun cfg ->
        ignore (E.sweep_page_size ppf cfg);
        ignore (E.sweep_memory_size ppf cfg));
    plain "ext-dual"
      ~doc:"Extension: two coprocessors behind one IMU via the arbiter."
      (fun cfg -> ignore (E.ext_dual ppf cfg));
    plain "ext-oracle"
      ~doc:
        "Extension: profile-guided Belady replacement (the 'efficient \
         allocation algorithms' of the paper's conclusion)."
      (fun cfg -> ignore (E.ext_oracle ppf cfg));
    plain_sharded "sensitivity"
      ~doc:"Robustness of the conclusions to the AHB copy-cost calibration."
      (fun ~jobs cfg -> ignore (E.sensitivity ~jobs ppf cfg));
  ]

let experiment_cmds =
  List.map
    (fun name ->
      let group = List.filter (fun s -> s.name = name) steps in
      let runs =
        List.fold_right
          (fun s runs -> Term.(const List.cons $ s.run $ runs))
          group (Term.const [])
      in
      let first = List.hd group in
      Cmd.v
        (Cmd.info name ~doc:first.doc)
        Term.(
          const (fun runs cfg -> List.iter (fun run -> run cfg) runs)
          $ runs $ first.config))
    (List.sort_uniq String.compare (List.map (fun s -> s.name) steps))

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Every figure, claim and ablation in sequence.")
    Term.(
      const (fun cfg jobs -> List.iter (fun s -> s.in_all ~jobs cfg) steps)
      $ config_term $ jobs)

let run_cmd =
  let app_arg =
    let kinds = Rvi_harness.Jobs.kinds in
    Arg.(
      required
      & opt
          (some
             (enum (List.map (fun k -> (Rvi_harness.Jobs.app_name k, k)) kinds)))
          None
      & info [ "app" ] ~docv:"NAME"
          ~doc:
            ("Application: "
            ^ String.concat ", " (List.map Rvi_harness.Jobs.app_name kinds)
            ^ "."))
  in
  let version =
    Arg.(
      value
      & opt
          (enum
             Rvi_harness.Runner.
               [ ("sw", Sw); ("vim", Vim); ("normal", Normal) ])
          Rvi_harness.Runner.Vim
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
  let run cfg csv app version size trace_out trace_format inject watchdog_ms =
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
      Rvi_harness.Runner.run cfg version
        (Rvi_harness.Jobs.generate app ~seed:cfg.Rvi_harness.Config.seed
           ~bytes:(Rvi_harness.Jobs.normalize_bytes app size))
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
      write_file path contents;
      Printf.printf "wrote %s (%d events%s)\n" path (List.length events)
        (let d = Rvi_obs.Trace.dropped tr in
         if d > 0 then Printf.sprintf ", %d dropped" d else "")
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
      const run $ config_flags (fun _ -> true) $ csv $ app_arg $ version $ size
      $ trace_out $ trace_format $ inject $ watchdog_ms)

let emit_stubs_cmd =
  let outdir =
    Arg.(
      value & opt string "stubs"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created).")
  in
  let run outdir =
    write_files outdir
      (List.concat_map Rvi_core.Stub_gen.emit_all
         Rvi_core.Stub_gen.[ vecadd_spec; adpcm_spec; idea_spec; fir_spec ])
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
  let run cfg name outdir =
    let design =
      Rvi_core.Vhdl_gen.make ~name ~device:cfg.Config.device
        ~imu_config:(Config.imu_config cfg) ()
    in
    write_files outdir (Rvi_core.Vhdl_gen.emit_all design)
  in
  Cmd.v
    (Cmd.info "emit-vhdl"
       ~doc:
         "Generate the VHDL interface skeletons (package, portable \
          coprocessor entity, platform IMU entity, stripe wrapper).")
    Term.(
      const run
      $ knob_flags (fun key -> key = "dev" || key = "imu")
      $ entity_name $ outdir)

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
        write_file path (Rvi_obs.Export.to_jsonl events);
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
          write_file path (Rvi_harness.Faults.csv results);
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
      let t0 = Unix.gettimeofday () in
      let more b =
        let left secs = Unix.gettimeofday () -. t0 < secs in
        let go = b = 0 || Option.fold soak ~none:false ~some:left in
        if go && soak <> None then
          Printf.eprintf "soak batch %d (seed %d)\n%!" b (seed + b);
        go
      in
      let batches =
        Chaos.soak ~more ~seed (fun ~seed ->
            Chaos.campaign ~jobs ~progress ~seed ~count ())
      in
      Chaos.print_summary ppf (Chaos.summarize (List.concat_map snd batches));
      let violations =
        List.concat_map (fun (bseed, rs) -> List.map (fun r -> (bseed, r)) rs) batches
        |> List.filter (fun (_, r) -> Chaos.classification r <> "pass")
      in
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
            writing (fun () ->
                Chaos.save_corpus ~dir:corpus_dir ~campaign_seed:bseed [ final ])
          in
          List.iter (Printf.printf "  wrote %s\n") paths;
          if promote then
            List.iter
              (Printf.printf "  promoted %s\n")
              (writing (fun () ->
                   Chaos.save_corpus ~dir:"test/corpus" ~campaign_seed:bseed
                     [ final ])))
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
      let path = writing (fun () -> Rvi_harness.Bench_campaign.append ~path:out r) in
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
      write_file path
        (String.concat ""
           (Rvi_svc.Serve.csv_header
           :: List.map (fun (r : Rvi_svc.Serve.cell_result) -> r.Rvi_svc.Serve.cr_csv) results));
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
            ignore (writing (fun () -> Rvi_svc.Bench_serve.append ~path p));
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

let () =
  let doc =
    "reproduction of 'Operating System Support for Interface Virtualisation \
     of Reconfigurable Coprocessors' (DATE 2004)"
  in
  let info = Cmd.info "rvisim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (experiment_cmds
          @ [
            emit_vhdl_cmd;
            emit_stubs_cmd;
            run_cmd;
            faults_cmd;
            chaos_cmd;
            bench_cmd;
            serve_cmd;
            all_cmd;
          ])))
