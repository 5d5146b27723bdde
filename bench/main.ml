(* Benchmark harness.

   Two parts:
   1. The paper reproduction: regenerates every figure of the evaluation
      (Figure 7 timing diagram, Figure 8 adpcmdecode, Figure 9 IDEA), the
      §4.1 overhead claims and the DESIGN.md ablations, printing the same
      rows/series the paper reports.
   2. Bechamel micro-benchmarks of the simulator itself (one Test.make per
      figure-generating workload plus the hot primitives), so simulator
      performance regressions are visible.

   Usage:  dune exec bench/main.exe              (everything)
           dune exec bench/main.exe -- fig8      (one experiment)
           dune exec bench/main.exe -- micro     (micro-benchmarks only)
           dune exec bench/main.exe -- campaign  (parallel campaign bench,
                                                  writes BENCH_campaign.json) *)

open Bechamel
open Toolkit

let cfg () = Rvi_harness.Config.default ()
let ppf = Format.std_formatter

(* Macro-benchmark of the sharded campaign runner: wall-clock and
   speedup of --jobs N over --jobs 1 on one seeded fault campaign,
   appended as a trajectory point to BENCH_campaign.json so the perf
   history has real before/after data. *)
let run_campaign () =
  let jobs = Rvi_par.Par.recommended_domains () in
  let r = Rvi_harness.Bench_campaign.run ~jobs () in
  print_endline "\n== Parallel campaign runner (wall-clock) ==";
  Rvi_harness.Bench_campaign.print ppf r;
  let path = Rvi_harness.Bench_campaign.append r in
  Printf.printf "appended trajectory point to %s\n" path

let experiments =
  [
    ("fig7", fun () -> ignore (Rvi_harness.Experiments.fig7 ppf ()));
    ( "fig7-pipelined",
      fun () -> ignore (Rvi_harness.Experiments.fig7 ~pipelined:true ppf ()) );
    ("fig8", fun () -> ignore (Rvi_harness.Experiments.fig8 ppf (cfg ())));
    ("fig9", fun () -> ignore (Rvi_harness.Experiments.fig9 ppf (cfg ())));
    ( "overheads",
      fun () -> ignore (Rvi_harness.Experiments.overheads ppf (cfg ())) );
    ( "ablations",
      fun () ->
        ignore (Rvi_harness.Experiments.ablation_policy ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_prefetch ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_pipelined_imu ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_transfer ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_tlb_size ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_chunked_normal ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_dma ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_overlap ppf (cfg ()));
        ignore (Rvi_harness.Experiments.ablation_tlb_org ppf (cfg ())) );
    ( "portability",
      fun () -> ignore (Rvi_harness.Experiments.portability ppf (cfg ())) );
    ("ext-fir", fun () -> ignore (Rvi_harness.Experiments.ext_fir ppf (cfg ())));
    ("ext-cbc", fun () -> ignore (Rvi_harness.Experiments.ext_cbc ppf (cfg ())));
    ( "miss-curve",
      fun () -> ignore (Rvi_harness.Experiments.miss_curve ppf (cfg ())) );
    ( "multiprog",
      fun () -> ignore (Rvi_svc.Batch.multiprogramming ppf (cfg ())) );
    ( "sweeps",
      fun () ->
        ignore (Rvi_harness.Experiments.sweep_page_size ppf (cfg ()));
        ignore (Rvi_harness.Experiments.sweep_memory_size ppf (cfg ())) );
    ( "ext-oracle",
      fun () -> ignore (Rvi_harness.Experiments.ext_oracle ppf (cfg ())) );
    ( "ext-dual",
      fun () -> ignore (Rvi_harness.Experiments.ext_dual ppf (cfg ())) );
    ( "sensitivity",
      fun () -> ignore (Rvi_harness.Experiments.sensitivity ppf (cfg ())) );
    ("campaign", run_campaign);
  ]

(* {1 Micro-benchmarks} *)

let bench_event_queue =
  Test.make ~name:"event_queue/push+pop-256"
    (Staged.stage (fun () ->
         let q = Rvi_sim.Event_queue.create () in
         for i = 0 to 255 do
           Rvi_sim.Event_queue.push q
             ~time:(Rvi_sim.Simtime.of_ps ((i * 7919) mod 1000))
             i
         done;
         while not (Rvi_sim.Event_queue.is_empty q) do
           ignore (Rvi_sim.Event_queue.pop q)
         done))

let bench_tlb =
  let tlb = Rvi_core.Tlb.create ~entries:8 () in
  for s = 0 to 7 do
    Rvi_core.Tlb.insert tlb ~slot:s ~obj_id:(s mod 3) ~vpn:s ~ppn:s ~stamp:0
  done;
  Test.make ~name:"tlb/translate-hit"
    (Staged.stage (fun () ->
         ignore (Rvi_core.Tlb.translate tlb ~obj_id:1 ~vpn:4 ~stamp:0 ~wr:false)))

let bench_adpcm_ref =
  let input = Rvi_harness.Workload.adpcm_stream ~seed:1 ~bytes:1024 in
  Test.make ~name:"adpcm_ref/decode-1KB"
    (Staged.stage (fun () -> ignore (Rvi_coproc.Adpcm_ref.decode input)))

let bench_idea_ref =
  let key = Rvi_harness.Workload.idea_key ~seed:1 in
  let input = Rvi_harness.Workload.idea_plaintext ~seed:1 ~bytes:1024 in
  Test.make ~name:"idea_ref/ecb-1KB"
    (Staged.stage (fun () ->
         ignore (Rvi_coproc.Idea_ref.ecb ~key ~decrypt:false input)))

let bench_fir_ref =
  let coeffs = Rvi_coproc.Fir_ref.lowpass ~taps:16 ~cutoff:0.12 in
  let input = Rvi_harness.Workload.fir_signal ~seed:1 ~bytes:2048 in
  Test.make ~name:"fir_ref/filter-1K-samples"
    (Staged.stage (fun () ->
         ignore (Rvi_coproc.Fir_ref.filter_bytes ~coeffs ~shift:12 input)))

let bench_mrc =
  let prng = Rvi_sim.Prng.create ~seed:3 in
  let refs = Array.init 4096 (fun _ -> (0, Rvi_sim.Prng.int prng 24)) in
  Test.make ~name:"mrc/lru-stack-4096-refs"
    (Staged.stage (fun () ->
         ignore (Rvi_harness.Mrc.lru_misses refs ~max_frames:16)))

let bench_clock =
  Test.make ~name:"engine/clock-4096-edges"
    (Staged.stage (fun () ->
         let engine = Rvi_sim.Engine.create () in
         let clock = Rvi_sim.Clock.create engine ~name:"c" ~freq_hz:1_000_000 in
         Rvi_sim.Clock.add clock
           (Rvi_sim.Clock.component ~name:"nop" ~compute:ignore ~commit:ignore ());
         Rvi_sim.Clock.start clock;
         Rvi_sim.Engine.run_until engine (Rvi_sim.Simtime.of_us 4096)))

let bench_vecadd_vim =
  let a, b = Rvi_harness.Workload.vectors ~seed:1 ~n:64 in
  Test.make ~name:"full-stack/vecadd-vim-64"
    (Staged.stage (fun () ->
         ignore (Rvi_harness.Runner.vecadd_vim (cfg ()) ~a ~b)))

(* Same workload on a platform pool: the delta against the fresh variant
   is the construction cost the pool amortises away. *)
let bench_vecadd_vim_pooled =
  let a, b = Rvi_harness.Workload.vectors ~seed:1 ~n:64 in
  let pool = Rvi_harness.Platform.Pool.create () in
  let c = cfg () in
  Test.make ~name:"full-stack/vecadd-vim-64-pooled"
    (Staged.stage (fun () ->
         ignore (Rvi_harness.Runner.vecadd_vim ~pool c ~a ~b)))

let bench_adpcm_vim =
  let input = Rvi_harness.Workload.adpcm_stream ~seed:1 ~bytes:2048 in
  Test.make ~name:"full-stack/adpcm-vim-2KB (fig8 point)"
    (Staged.stage (fun () ->
         ignore (Rvi_harness.Runner.adpcm_vim (cfg ()) ~input)))

let bench_idea_vim =
  let key = Rvi_harness.Workload.idea_key ~seed:1 in
  let input = Rvi_harness.Workload.idea_plaintext ~seed:1 ~bytes:4096 in
  Test.make ~name:"full-stack/idea-vim-4KB (fig9 point)"
    (Staged.stage (fun () ->
         ignore (Rvi_harness.Runner.idea_vim (cfg ()) ~key ~input)))

let micro_tests =
  Test.make_grouped ~name:"rvi"
    [
      bench_event_queue;
      bench_tlb;
      bench_adpcm_ref;
      bench_idea_ref;
      bench_fir_ref;
      bench_mrc;
      bench_clock;
      bench_vecadd_vim;
      bench_vecadd_vim_pooled;
      bench_adpcm_vim;
      bench_idea_vim;
    ]

let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ minor_allocated; monotonic_clock ] in
  let benchmark_cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all benchmark_cfg instances micro_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ minor_allocated; monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  print_endline "\n== Simulator micro-benchmarks (Bechamel) ==";
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results
  |> Notty_unix.eol |> Notty_unix.output_image

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
    List.iter (fun (_, f) -> f ()) experiments;
    run_micro ()
  | [ "micro" ] -> run_micro ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None when name = "micro" -> run_micro ()
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s micro\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names
