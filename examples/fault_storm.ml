(* Fault storm: the reliability layer end to end.

   Runs the ADPCM decoder through the virtualised interface while a
   seeded injector misbehaves at every hardware boundary — bus errors,
   DMA failures, bit flips in the dual-port RAM, corrupted TLB entries,
   lost and spurious interrupt edges, coprocessor hangs — at several
   multiples of the calibrated default rates, and shows what the VIM's
   recovery machinery makes of it: in-VIM copy retries, lost-IRQ polling,
   watchdog aborts, whole-execution retries, and finally degradation to
   the software reference. The output is verified bit-for-bit in every
   case; only the time (and the outcome label) changes.

   Run with:  dune exec examples/fault_storm.exe *)

module Config = Rvi_harness.Config
module Runner = Rvi_harness.Runner
module Report = Rvi_harness.Report
module Jobs = Rvi_harness.Jobs
module Injector = Rvi_inject.Injector
module Spec = Rvi_inject.Spec
module Stats = Rvi_sim.Stats

let () =
  let input = Jobs.generate Jobs.Adpcm ~seed:42 ~bytes:4096 in
  Printf.printf
    "adpcmdecode, 4 KB compressed input, under increasing fault rates\n\n";
  Printf.printf "%-10s %-10s %-28s %-9s %s\n" "rate" "injected" "outcome"
    "retries" "output";
  List.iter
    (fun factor ->
      let inj = Injector.create ~seed:7 ~spec:(Spec.all ~factor ()) in
      let cfg =
        {
          (Config.default ()) with
          Config.injector = Some inj;
          watchdog = Rvi_harness.Faults.default_watchdog;
        }
      in
      let row = Runner.run cfg Runner.Vim input in
      let outcome =
        match row.Report.outcome with
        | Report.Measured -> "measured"
        | Report.Degraded _ -> "degraded to software"
        | Report.Exceeds_memory -> "exceeds memory"
        | Report.Failed m -> "FAILED: " ^ m
      in
      Printf.printf "x%-9.1f %-10d %-28s %-9d %s\n" factor
        (Injector.injected_total inj)
        outcome row.Report.retries
        (if row.Report.verified then "bit-exact" else "WRONG")
    )
    [ 0.0; 1.0; 10.0; 100.0 ];
  (* A short campaign: the same machinery, classified over many seeds. *)
  Printf.printf "\n60-run campaign at default rates (seed 2004):\n";
  let results = Rvi_harness.Faults.campaign ~runs:60 ~seed:2004 () in
  let s = Rvi_harness.Faults.summarize results in
  Rvi_harness.Faults.print_summary Format.std_formatter s;
  if not (Rvi_harness.Faults.passed s) then exit 1
