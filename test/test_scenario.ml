(* Tests for the chaos scenario harness (rvi_scenario): serde
   round-trips, generator determinism, invariant classification, the
   shrinker acceptance, the pinned corpus regressions, the reified VIM
   recovery transition table, and merge/summary identities for the
   recovery counters that parallel campaigns depend on. *)

module Simtime = Rvi_sim.Simtime
module Stats = Rvi_sim.Stats
module Fault = Rvi_inject.Fault
module Spec = Rvi_inject.Spec
module Vim = Rvi_core.Vim
module Faults = Rvi_harness.Faults
module Scenario = Rvi_scenario.Scenario
module Chaos = Rvi_scenario.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let roundtrip sc =
  match Scenario.of_string (Scenario.to_string sc) with
  | Ok sc' -> sc'
  | Error m -> Alcotest.fail ("scenario does not parse back: " ^ m)

let roundtrip_line line =
  match Scenario.of_string line with
  | Ok sc -> sc
  | Error m -> Alcotest.fail ("scenario line does not parse: " ^ m)

(* {1 Serialisation} *)

let test_roundtrip () =
  checkb "default round-trips" true (roundtrip Scenario.default = Scenario.default);
  checkb "known-bad round-trips" true
    (roundtrip Scenario.known_bad = Scenario.known_bad);
  for i = 0 to 19 do
    let sc = Scenario.generate ~seed:7 ~index:i in
    checkb (Printf.sprintf "generated %d round-trips bit-exactly" i) true
      (roundtrip sc = sc)
  done;
  checkb "junk rejected" true
    (Result.is_error (Scenario.of_string "seed=1;bogus=2"));
  checkb "unknown app rejected" true
    (Result.is_error (Scenario.of_string "apps=quicksort"))

(* The generator's draw order is part of the scenario format: scenario
   (seed, index) must serialise to the same line in every version. *)
let test_generator_pinned () =
  let lines =
    List.init 1000 (fun i ->
        Scenario.to_string (Scenario.generate ~seed:42 ~index:i) ^ "\n")
  in
  checks "md5 of generate ~seed:42 ~index:0..999" "3cc99f95f308a064e067c55549b52614"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

let test_generator_deterministic () =
  let a = Scenario.generate ~seed:11 ~index:3 in
  checkb "same (seed, index) regenerates identically" true
    (a = Scenario.generate ~seed:11 ~index:3);
  checkb "different index differs" true
    (a <> Scenario.generate ~seed:11 ~index:4);
  checkb "different seed differs" true
    (a <> Scenario.generate ~seed:12 ~index:3)

(* {1 Classification} *)

(* The seeded adversarial scenario: hang + lost IRQ with the watchdog
   disabled can never reclaim the interface, so the progress invariant
   must flag it. *)
let test_known_bad_classifies () =
  let r = Chaos.run Scenario.known_bad in
  checks "progress violation" "progress-gap" (Chaos.classification r)

(* Satellite regression: a saturated page-table-walker fault stream in
   SVA mode must ride the severity ladder — Walk_failed is transient, the
   runner's execute retries exhaust, and the verified software fallback
   answers. Historically the fallback was keyed on the EIO errno alone
   and an SVA run could fail outright instead of degrading. *)
let test_sva_degraded_run () =
  let sc =
    {
      Scenario.default with
      Scenario.translation = Rvi_core.Translation_mode.Iommu_sva;
      rates = [ { Spec.kind = Fault.Ptw_error; rate = 1.0 } ];
    }
  in
  let r = Chaos.run sc in
  checks "degrade, not failure" "pass" (Chaos.classification r);
  List.iter
    (fun rr ->
      match rr.Faults.outcome with
      | Faults.Degraded { verified = true; _ } -> ()
      | o ->
        Alcotest.fail
          ("expected a verified degrade, got " ^ Faults.outcome_name o))
    r.Chaos.runs

(* {1 Shrinking} *)

let test_shrinker_acceptance () =
  let cls = Chaos.classification (Chaos.run Scenario.known_bad) in
  let small = Chaos.shrink ~cls Scenario.known_bad in
  checkb "measure strictly decreased" true
    (Scenario.measure small < Scenario.measure Scenario.known_bad);
  checkb "at most 3 fault events" true (List.length small.Scenario.events <= 3);
  checks "classification preserved" cls
    (Chaos.classification (Chaos.run small));
  (* the minimal repro replays through its serialised form *)
  checks "serialised repro replays" cls
    (Chaos.classification (Chaos.run (roundtrip small)))

(* {1 The pinned corpus}

   Every promoted repro under test/corpus/ replays with the
   classification its [# expect:] header records. *)
let test_corpus_replays () =
  let dir = "corpus" in
  checkb "corpus directory present" true (Sys.file_exists dir);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scenario")
    |> List.sort compare
  in
  checkb "at least one pinned repro" true (files <> []);
  List.iter
    (fun f ->
      match Chaos.replay (Filename.concat dir f) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail (f ^ ": " ^ m))
    files;
  (* A corpus line is a data format: it re-serialises to itself, followed
     by any fields added since it was written at their defaults. *)
  List.iter
    (fun f ->
      In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.iter (fun line ->
             let again = Scenario.to_string (roundtrip_line line) in
             checkb (f ^ " re-serialises to itself") true
               (String.starts_with ~prefix:line again);
             checks (f ^ " re-serialisation is a fixed point") again
               (Scenario.to_string (roundtrip_line again))))
    files

(* {1 Soak}

   A soak keeps every batch's reports and runs each batch once: a
   violation in batch 0 of a two-batch soak is in the result, beside its
   batch seed. *)
let test_soak_keeps_every_batch () =
  let ran = ref [] in
  let batch ~seed =
    ran := seed :: !ran;
    let sc = if seed = 5 then Scenario.known_bad else Scenario.default in
    [ Chaos.run ~index:0 sc ]
  in
  let batches = Chaos.soak ~more:(fun b -> b < 2) ~seed:5 batch in
  checkb "each batch ran once" true (List.rev !ran = [ 5; 6 ]);
  let s = Chaos.summarize (List.concat_map snd batches) in
  checki "both batches summarised" 2 s.Chaos.scenarios;
  checki "one violation" 1 (s.Chaos.scenarios - s.Chaos.passes);
  checkb "batch 0's violation kept with its seed" true
    (List.exists
       (fun (bseed, reports) ->
         bseed = 5
         && List.exists (fun r -> Chaos.classification r = "progress-gap") reports)
       batches)

(* {1 The recovery transition table}

   [Vim.decide] is the machine every recovery path dispatches through;
   enumerate it: total, Retry only within the budget, terminal past it,
   Poll only for lost interrupts, hangs abort, and only bad output
   degrades. *)

let prop_recovery_table =
  QCheck.Test.make ~name:"recovery table: total, bounded, terminal"
    ~count:300
    QCheck.(
      triple
        (int_bound (List.length Vim.all_fault_classes - 1))
        (int_range 1 9) (int_bound 5))
    (fun (ci, attempt, max_retries) ->
      let cls = List.nth Vim.all_fault_classes ci in
      let r = { Vim.default_recovery with Vim.max_retries } in
      let a = Vim.decide r ~cls ~attempt in
      let beyond = attempt > max_retries in
      let well_formed =
        match a with
        | Vim.Retry _ -> not beyond
        | Vim.Poll -> cls = Vim.Lost_irq
        | Vim.Abort | Vim.Degrade -> true
      in
      let per_class =
        match cls with
        | Vim.Hang -> a = Vim.Abort
        | Vim.Lost_irq -> a = Vim.Poll
        | Vim.Bad_output ->
          if beyond then a = Vim.Degrade
          else a = Vim.Retry { backoff = Simtime.zero }
        | Vim.Walk_error ->
          if beyond then a = Vim.Abort
          else a = Vim.Retry { backoff = Simtime.zero }
        | Vim.Copy_error -> (
          if beyond then a = Vim.Abort
          else match a with Vim.Retry _ -> true | _ -> false)
      in
      well_formed && per_class)

let test_recovery_never_wedges () =
  (* Follow the machine through successive failures of one operation:
     every class reaches a non-Retry action within budget + 1 steps. *)
  let r = { Vim.default_recovery with Vim.max_retries = 3 } in
  List.iter
    (fun cls ->
      let rec follow attempt =
        if attempt > 10 then Alcotest.fail "recovery machine wedged"
        else
          match Vim.decide r ~cls ~attempt with
          | Vim.Retry _ -> follow (attempt + 1)
          | Vim.Poll | Vim.Abort | Vim.Degrade -> attempt
      in
      checkb
        (Vim.fault_class_name cls ^ " terminates within the budget")
        true
        (follow 1 <= r.Vim.max_retries + 1))
    Vim.all_fault_classes;
  checkb "attempt 0 rejected" true
    (try
       ignore (Vim.decide r ~cls:Vim.Copy_error ~attempt:0);
       false
     with Invalid_argument _ -> true)

(* {1 Merge and summary identities}

   Parallel campaigns merge per-shard stats and concatenate per-shard
   results; the recovery counters and the Degraded tallies must come out
   the same as a serial run. *)

let recovery_counters =
  [
    "copy_retries"; "copy_retries_exhausted"; "walk_retries";
    "walk_retries_exhausted"; "watchdog_fires"; "spurious_irqs";
    "lost_irq_recovered";
  ]

let test_stats_merge_identity () =
  let src = Stats.create () in
  List.iteri
    (fun i name -> Stats.incr ~by:(i + 1) src name)
    recovery_counters;
  let into = Stats.create () in
  Stats.merge_into ~into src;
  checkb "merge into empty is the identity" true
    (Stats.counters into = Stats.counters src);
  Stats.merge_into ~into src;
  List.iteri
    (fun i name ->
      checki (name ^ " adds") (2 * (i + 1)) (Stats.get into name))
    recovery_counters

let prop_summarize_additive =
  let arb_outcome =
    QCheck.Gen.oneofl
      [
        Faults.Clean;
        Faults.Recovered { retries = 1 };
        Faults.Degraded { reason = "r"; verified = true };
        Faults.Degraded { reason = "r"; verified = false };
        Faults.Failed "f";
        Faults.Crashed "c";
      ]
  in
  let arb_results =
    QCheck.make
      QCheck.Gen.(
        list_size (int_bound 12)
          (map
             (fun o ->
               {
                 Faults.index = 0;
                 seed = 1;
                 app = "adpcm";
                 outcome = o;
                 injected = 2;
                 total_ms = 1.0;
               })
             arb_outcome))
  in
  QCheck.Test.make ~name:"summarize is additive over concatenation"
    ~count:100 (QCheck.pair arb_results arb_results)
    (fun (a, b) ->
      let s = Faults.summarize (a @ b) in
      let sa = Faults.summarize a and sb = Faults.summarize b in
      s.Faults.runs = sa.Faults.runs + sb.Faults.runs
      && s.Faults.clean = sa.Faults.clean + sb.Faults.clean
      && s.Faults.recovered = sa.Faults.recovered + sb.Faults.recovered
      && s.Faults.degraded = sa.Faults.degraded + sb.Faults.degraded
      && s.Faults.failed = sa.Faults.failed + sb.Faults.failed
      && s.Faults.crashed = sa.Faults.crashed + sb.Faults.crashed
      && s.Faults.injected = sa.Faults.injected + sb.Faults.injected
      && s.Faults.bad_degraded = sa.Faults.bad_degraded + sb.Faults.bad_degraded)

(* {1 Campaign determinism} *)

let classifications reports =
  List.map (fun r -> (r.Chaos.index, Chaos.classification r)) reports

let test_campaign_deterministic () =
  let a = Chaos.campaign ~seed:42 ~count:8 () in
  let b = Chaos.campaign ~seed:42 ~count:8 () in
  checkb "same seed replays identically" true
    (classifications a = classifications b);
  let s = Chaos.summarize a in
  checki "every scenario classified" 8 s.Chaos.scenarios;
  checki "generated envelope passes" 8 s.Chaos.passes

(* The chaos-smoke campaign's classifications, pinned: a refactor of the
   scenario-to-platform path must not move a single verdict. *)
let test_campaign_pinned () =
  let reports = Chaos.campaign ~jobs:1 ~seed:2004 ~count:50 () in
  let lines =
    List.map
      (fun (i, cls) -> Printf.sprintf "%d:%s\n" i cls)
      (classifications reports)
  in
  checks "md5 of seed-2004 x 50 classifications" "ec4dc747c034f712fcdc8271f62c0121"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

let test_campaign_parallel_matches_serial () =
  let serial = Chaos.campaign ~seed:1 ~count:6 () in
  let par = Chaos.campaign ~jobs:2 ~seed:1 ~count:6 () in
  checkb "jobs do not change the classification" true
    (classifications serial = classifications par)

let suite =
  [
    Alcotest.test_case "scenario/roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "scenario/generator-pinned" `Quick test_generator_pinned;
    Alcotest.test_case "scenario/generator-deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "chaos/known-bad-progress-gap" `Quick
      test_known_bad_classifies;
    Alcotest.test_case "chaos/sva-degraded-run" `Quick test_sva_degraded_run;
    Alcotest.test_case "chaos/shrinker-acceptance" `Slow
      test_shrinker_acceptance;
    Alcotest.test_case "chaos/corpus-replays" `Quick test_corpus_replays;
    Alcotest.test_case "chaos/soak-keeps-every-batch" `Quick
      test_soak_keeps_every_batch;
    QCheck_alcotest.to_alcotest prop_recovery_table;
    Alcotest.test_case "recovery/never-wedges" `Quick
      test_recovery_never_wedges;
    Alcotest.test_case "stats/merge-identity" `Quick test_stats_merge_identity;
    QCheck_alcotest.to_alcotest prop_summarize_additive;
    Alcotest.test_case "chaos/campaign-deterministic" `Slow
      test_campaign_deterministic;
    Alcotest.test_case "chaos/campaign-pinned" `Slow test_campaign_pinned;
    Alcotest.test_case "chaos/campaign-parallel" `Slow
      test_campaign_parallel_matches_serial;
  ]
