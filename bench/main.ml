(* Bechamel micro-benchmarks of the simulator itself: the hot primitives
   and a few full-stack runs at figure points, so simulator performance
   regressions are visible. The paper's figures and ablations are
   `rvisim <cmd>` (or `rvisim all`); the campaign benchmark is
   `rvisim bench`.

   Usage:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

let cfg () = Rvi_harness.Config.default ()

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
         ignore (Rvi_core.Tlb.translate tlb ~key:1 ~obj_id:1 ~vpn:4 ~stamp:0 ~wr:false)))

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

let full_stack ?pool name kind bytes =
  let input = Rvi_harness.Jobs.generate kind ~seed:1 ~bytes in
  Test.make ~name:("full-stack/" ^ name)
    (Staged.stage (fun () ->
         ignore (Rvi_harness.Runner.run ?pool (cfg ()) Rvi_harness.Runner.Vim input)))

let bench_vecadd_vim = full_stack "vecadd-vim-64" Rvi_harness.Jobs.Vecadd 512

(* Same workload on a platform pool: the delta against the fresh variant
   is the construction cost the pool amortises away. *)
let bench_vecadd_vim_pooled =
  full_stack ~pool:(Rvi_harness.Platform.Pool.create ()) "vecadd-vim-64-pooled"
    Rvi_harness.Jobs.Vecadd 512

let bench_adpcm_vim =
  full_stack "adpcm-vim-2KB (fig8 point)" Rvi_harness.Jobs.Adpcm 2048

let bench_idea_vim =
  full_stack "idea-vim-4KB (fig9 point)" Rvi_harness.Jobs.Idea 4096

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

let () = run_micro ()
