(* Tests for the multi-tenant service layer (rvi_svc): the descriptor
   ring against a functional-queue model, completion-id permutation and
   per-tenant FIFO through a whole serve cell, preemption soundness at
   every cycle offset of a short run in both translation modes,
   scheduler determinism across --jobs, the cross-tenant hang/reclaim
   isolation regression, starvation detection, and the chaos
   integration of the tenants/SLO scenario axes. *)

module Simtime = Rvi_sim.Simtime
module Kernel = Rvi_os.Kernel
module Config = Rvi_harness.Config
module Platform = Rvi_harness.Platform
module Calibration = Rvi_harness.Calibration
module Workload = Rvi_harness.Workload
module Jobs = Rvi_harness.Jobs
module Api = Rvi_core.Api
module Vim = Rvi_core.Vim
module Translation_mode = Rvi_core.Translation_mode
module Fault = Rvi_inject.Fault
module Injector = Rvi_inject.Injector
module Ring = Rvi_svc.Ring
module Tenant = Rvi_svc.Tenant
module Sched_policy = Rvi_svc.Sched_policy
module Service = Rvi_svc.Service
module Loadgen = Rvi_svc.Loadgen
module Slo = Rvi_svc.Slo
module Serve = Rvi_svc.Serve
module Scenario = Rvi_scenario.Scenario
module Chaos = Rvi_scenario.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* {1 The descriptor ring} *)

let test_ring_basics () =
  let r = Ring.create ~capacity:3 in
  checkb "fresh ring is empty" true (Ring.is_empty r);
  checkb "push 1" true (Ring.push r 1);
  checkb "push 2" true (Ring.push r 2);
  checkb "push 3" true (Ring.push r 3);
  checkb "full ring refuses" false (Ring.push r 4);
  checki "length" 3 (Ring.length r);
  Alcotest.(check (option int)) "peek is oldest" (Some 1) (Ring.peek r);
  Alcotest.(check (option int)) "pop is oldest" (Some 1) (Ring.pop r);
  checkb "push after wrap" true (Ring.push r 4);
  Alcotest.(check (list int)) "FIFO across the wrap" [ 2; 3; 4 ]
    (Ring.to_list r);
  checkb "non-positive capacity rejected" true
    (try
       ignore (Ring.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* Model-based: any interleaving of pushes and pops over any capacity
   behaves exactly like an unbounded functional queue truncated at the
   capacity — same acceptance, same pop order, nothing lost, nothing
   duplicated. *)
let prop_ring_model =
  QCheck.Test.make ~name:"ring matches the functional-queue model"
    ~count:500
    QCheck.(pair (int_range 1 5) (small_list (option small_nat)))
    (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
            let accepted = Ring.push r v in
            let fits = Queue.length model < cap in
            if fits then Queue.add v model;
            accepted = fits
          | None -> Ring.pop r = Queue.take_opt model)
        ops
      && Ring.to_list r = List.of_seq (Queue.to_seq model))

(* {1 Service-level identities through a whole serve cell} *)

let small_cell ?(policy = Sched_policy.Wfq)
    ?(translation = Translation_mode.Paper_objects) ?(seed = 7)
    ?(tenants = 3) ?(requests = 24) ?(rate_hz = 0) () =
  {
    Serve.cl_policy = policy;
    cl_translation = translation;
    cl_seed = seed;
    cl_tenants = tenants;
    cl_requests = requests;
    cl_rate_hz = rate_hz;
    cl_quantum_us = 50;
    cl_bytes = 128;
  }

let csv_rows csv =
  String.split_on_char '\n' csv
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> String.split_on_char ',' l)

(* Closed loop: every request completes exactly once (the completion
   rids are a permutation of the submission rids), in submission order
   within each tenant. *)
let test_completions_are_a_permutation () =
  let r = Serve.run_cell (small_cell ()) in
  Alcotest.(check (list string)) "no invariant violations" []
    (Serve.violations r);
  let rows = csv_rows r.Serve.cr_csv in
  checki "one row per request" 24 (List.length rows);
  let rids = List.map (fun row -> int_of_string (List.nth row 2)) rows in
  Alcotest.(check (list int)) "rids are a permutation of submissions"
    (List.init 24 Fun.id)
    (List.sort compare rids);
  (* per-tenant FIFO: within a tenant, completion order = rid order *)
  let per_tenant = Hashtbl.create 4 in
  List.iter
    (fun row ->
      let tenant = int_of_string (List.nth row 3) in
      let rid = int_of_string (List.nth row 2) in
      let prev = Option.value ~default:(-1) (Hashtbl.find_opt per_tenant tenant) in
      checkb "per-tenant completions in submission order" true (rid > prev);
      Hashtbl.replace per_tenant tenant rid)
    rows

let test_campaign_jobs_invariant () =
  let cells =
    Serve.cells ~policies:Sched_policy.all
      ~translations:[ Translation_mode.Paper_objects ] ~seed:11 ~tenants:4
      ~requests:24 ~rate_hz:0 ~quantum_us:50 ~bytes:64
  in
  let serial = Serve.campaign cells in
  let parallel = Serve.campaign ~jobs:2 cells in
  checks "per-request digest independent of --jobs" (Serve.digest serial)
    (Serve.digest parallel);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        ("clean run: " ^ Serve.cell_label r.Serve.cr_cell)
        [] (Serve.violations r))
    serial

(* {1 Preemption soundness}

   A short ADPCM execution, preempted at every cycle offset, the parked
   interface scrambled (the whole shared dual-port RAM clobbered — the
   observable effect of another station's tenant using the interface
   while this one is parked), then resumed and run to completion: the
   output must be byte-identical to the reference and the VIM
   consistency checker clean, in both translation modes. The scramble
   is the cross-station hazard the service actually exposes a parked
   context to: stations share the dual-port RAM but own their IMU,
   frame table and coprocessor, and a station's parked tenant shadows
   fresh work of its kind, so no second execution ever runs on the
   parked station itself. *)

let adpcm_input = Workload.adpcm_stream ~seed:9 ~bytes:8

let adpcm_setup ?(input = adpcm_input) p =
  let ok = function
    | Ok () -> ()
    | Error _ -> Alcotest.fail "adpcm setup failed"
  in
  let in_buf = Platform.alloc_bytes p input in
  let out_buf =
    Platform.alloc p (Rvi_coproc.Adpcm_ref.decoded_size (Bytes.length input))
  in
  ok (Api.fpga_load p.Platform.api Calibration.adpcm_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:Rvi_coproc.Adpcm_coproc.obj_in
       ~buf:in_buf ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:Rvi_coproc.Adpcm_coproc.obj_out
       ~buf:out_buf ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  match
    Vim.exec_start ~page_table:p.Platform.proc.Rvi_os.Proc.page_table
      p.Platform.vim
      ~params:[ Bytes.length input ]
  with
  | Ok session -> (session, out_buf)
  | Error _ -> Alcotest.fail "exec_start failed"

let rec pump_to_done p session =
  let until =
    Simtime.add (Kernel.now p.Platform.kernel) (Simtime.of_ms 10)
  in
  match Vim.exec_pump p.Platform.vim session ~until with
  | `Done r -> r
  | `Running -> pump_to_done p session

let scramble_dpram p =
  let dpram = p.Platform.dpram in
  let page_size = Rvi_mem.Dpram.page_size dpram in
  let junk = Bytes.make page_size '\xa5' in
  for page = 0 to Rvi_mem.Dpram.n_pages dpram - 1 do
    Rvi_mem.Dpram.load_page dpram ~page junk ~src:0 ~len:page_size
  done

let preemption_soundness translation () =
  let cfg = { (Config.default ()) with Config.translation } in
  let expected = Rvi_coproc.Adpcm_ref.decode adpcm_input in
  let p =
    Platform.create ~app_name:"svc-preempt" cfg
      ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.Virtual.create
  in
  (* Unpreempted reference run, and the cycle count to sweep. *)
  let session, out_buf = adpcm_setup p in
  let t_begin = Kernel.now p.Platform.kernel in
  (match pump_to_done p session with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unpreempted run failed");
  checkb "unpreempted output matches the reference" true
    (Bytes.equal (Platform.read p out_buf) expected);
  let cycle_ps =
    1_000_000_000_000
    / Calibration.adpcm_bitstream.Rvi_fpga.Bitstream.imu_freq_hz
  in
  let total_cycles =
    (Simtime.to_ps (Simtime.sub (Kernel.now p.Platform.kernel) t_begin)
    + cycle_ps - 1)
    / cycle_ps
  in
  checkb "run is long enough to sweep" true (total_cycles > 4);
  let preempted = ref 0 in
  for k = 1 to total_cycles do
    Platform.reset p cfg;
    let session, out_buf = adpcm_setup p in
    let t0 = Kernel.now p.Platform.kernel in
    let label = Printf.sprintf "offset %d/%d" k total_cycles in
    let result =
      match
        Vim.exec_pump p.Platform.vim session
          ~until:(Simtime.add t0 (Simtime.of_ps (k * cycle_ps)))
      with
      | `Done r -> r
      | `Running ->
        incr preempted;
        let ctx = Vim.exec_preempt p.Platform.vim session in
        scramble_dpram p;
        let session = Vim.exec_resume p.Platform.vim ctx in
        pump_to_done p session
    in
    (match result with
    | Ok () -> ()
    | Error _ -> Alcotest.fail (label ^ ": resumed run failed"));
    checkb (label ^ ": output matches the reference") true
      (Bytes.equal (Platform.read p out_buf) expected);
    match Vim.consistency p.Platform.vim with
    | Ok () -> ()
    | Error m -> Alcotest.fail (label ^ ": inconsistent after resume: " ^ m)
  done;
  checkb "sweep actually preempted mid-run" true (!preempted > 4)

(* {1 Serve trajectory gate}

   requests/s depends on the cell size, so a point may only be gated
   against the newest point of its series measured at the same size. *)

let test_bench_serve_baseline_by_size () =
  let point ~tenants ~requests ~rps =
    {
      Rvi_svc.Bench_serve.benchmark = "serve-wfq-paper-objects";
      commit = "deadbee";
      host_cores = 2;
      recommended_domains = 2;
      tenants;
      requests;
      completed = requests;
      seed = 42;
      jobs = 1;
      wall_s = 1.0;
      runs_per_sec = rps;
      p50_us = 1.0;
      p95_us = 2.0;
      p99_us = 3.0;
      jain = 1.0;
      makespan_ms = 1.0;
      reconfigurations = 0;
      preemptions = 0;
      deterministic = true;
      digest = "d";
    }
  in
  let path = Filename.temp_file "bench_serve" ".json" in
  Sys.remove path;
  let base ~tenants ~requests =
    Option.map
      (fun b -> b.Rvi_svc.Bench_serve.base_runs_per_sec)
      (Rvi_svc.Bench_serve.last_baseline ~path
         ~benchmark:"serve-wfq-paper-objects" ~tenants ~requests ())
  in
  ignore (Rvi_svc.Bench_serve.append ~path (point ~tenants:40 ~requests:400 ~rps:1000.0));
  ignore (Rvi_svc.Bench_serve.append ~path (point ~tenants:200 ~requests:20000 ~rps:8000.0));
  ignore (Rvi_svc.Bench_serve.append ~path (point ~tenants:40 ~requests:400 ~rps:1200.0));
  ignore (Rvi_svc.Bench_serve.append ~path (point ~tenants:200 ~requests:20000 ~rps:9000.0));
  Alcotest.(check (option (float 0.01))) "smoke size: its own newest point"
    (Some 1200.0) (base ~tenants:40 ~requests:400);
  Alcotest.(check (option (float 0.01))) "large size: its own newest point"
    (Some 9000.0) (base ~tenants:200 ~requests:20000);
  Alcotest.(check (option (float 0.01))) "no point of this size" None
    (base ~tenants:40 ~requests:4000);
  Sys.remove path

(* {1 Parked-context ownership and preemption allocation}

   A parked context owns its dual-port image only until it is resumed:
   [exec_resume] hands the image to the VIM's spare slot, where the next
   [exec_preempt] reuses it. *)

let adpcm_platform cfg =
  Platform.create ~app_name:"svc-park" cfg
    ~bitstream:Calibration.adpcm_bitstream
    ~make:Rvi_coproc.Adpcm_coproc.Virtual.create

let adpcm_cycle_ps =
  1_000_000_000_000
  / Calibration.adpcm_bitstream.Rvi_fpga.Bitstream.imu_freq_hz

(* Regression: a context is single-use. Resuming it a second time would
   reload pages that the VIM has since handed to another preemption. *)
let test_context_single_use () =
  let input = Workload.adpcm_stream ~seed:31 ~bytes:64 in
  let p = adpcm_platform (Config.default ()) in
  let session, out_buf = adpcm_setup ~input p in
  let vim = p.Platform.vim in
  let t0 = Kernel.now p.Platform.kernel in
  (match
     Vim.exec_pump vim session
       ~until:(Simtime.add t0 (Simtime.of_ps (20 * adpcm_cycle_ps)))
   with
  | `Done _ -> Alcotest.fail "run finished before the preemption point"
  | `Running -> ());
  let ctx = Vim.exec_preempt vim session in
  let session = Vim.exec_resume vim ctx in
  Alcotest.check_raises "a second resume of the same context"
    (Invalid_argument "Vim.exec_resume: context already resumed") (fun () ->
      ignore (Vim.exec_resume vim ctx));
  (* The rejected resume touched nothing: the live run still completes. *)
  (match pump_to_done p session with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "run after the rejected resume failed");
  checkb "output matches the reference" true
    (Bytes.equal (Platform.read p out_buf) (Rvi_coproc.Adpcm_ref.decode input))

(* Two tenants with different data take turns on one station, each
   request parked and resumed after every short quantum (with the DP-RAM
   scrambled while parked), until 1000 park/resume pairs have run. Every
   output must be byte-exact, and once the spare image exists a pair
   must allocate less than one DP-RAM page. *)
let test_preemption_allocation () =
  let cfg = Config.default () in
  let p = adpcm_platform cfg in
  let vim = p.Platform.vim in
  let page_size = Rvi_mem.Dpram.page_size p.Platform.dpram in
  let inputs =
    [| Workload.adpcm_stream ~seed:41 ~bytes:48;
       Workload.adpcm_stream ~seed:42 ~bytes:48 |]
  in
  checkb "the tenants' data differ" false (Bytes.equal inputs.(0) inputs.(1));
  let quantum = Simtime.of_ps (7 * adpcm_cycle_ps) in
  let pairs = ref 0 and measured = ref 0 and worst = ref 0.0 in
  let request = ref 0 in
  while !pairs < 1000 do
    let input = inputs.(!request land 1) in
    Platform.reset p cfg;
    let session, out_buf = adpcm_setup ~input p in
    let rec run session =
      let until = Simtime.add (Kernel.now p.Platform.kernel) quantum in
      match Vim.exec_pump vim session ~until with
      | `Done r -> r
      | `Running ->
        (* Allocation counters are settled at minor collections, so a
           window straddling one misreads by up to a minor heap: start
           each measured pair with an empty minor heap. *)
        Gc.minor ();
        let a0 = Gc.allocated_bytes () in
        let ctx = Vim.exec_preempt vim session in
        let a1 = Gc.allocated_bytes () in
        scramble_dpram p;
        let b0 = Gc.allocated_bytes () in
        let session = Vim.exec_resume vim ctx in
        let b1 = Gc.allocated_bytes () in
        (* the very first preemption allocates the spare *)
        if !pairs > 0 then begin
          incr measured;
          worst := Float.max !worst (a1 -. a0 +. (b1 -. b0))
        end;
        incr pairs;
        run session
    in
    (match run session with
    | Ok () -> ()
    | Error _ -> Alcotest.fail (Printf.sprintf "request %d failed" !request));
    checkb
      (Printf.sprintf "request %d output is byte-exact" !request)
      true
      (Bytes.equal (Platform.read p out_buf) (Rvi_coproc.Adpcm_ref.decode input));
    incr request
  done;
  checkb "both tenants ran several requests" true (!request >= 4);
  checkb
    (Printf.sprintf "a park/resume pair allocates %.0f bytes, under one %d-byte page"
       !worst page_size)
    true
    (!measured > 0 && !worst < float_of_int page_size)

(* {1 Cross-tenant isolation}

   Regression for the latent single-tenant assumptions in the VIM abort
   and watchdog paths: one tenant's injected coprocessor hang — watchdog
   fire, abort hook, interface reclaim — must not corrupt or wake
   another tenant's in-flight request. Tenant 1 runs concurrently
   (preempted in and out under WFQ while tenant 0 sits hung) and must
   complete Clean with verified output; and the hung tenant's watchdog
   budget must survive parking, so the hang is reclaimed rather than
   livelocking (historically resume re-armed the watchdog from scratch,
   so a hung tenant preempted every quantum never aborted). *)

let test_cross_tenant_hang_isolation () =
  let inj = Injector.create ~seed:3 ~spec:[] in
  Injector.set_events inj [ (Fault.Coproc_hang, 1) ];
  let cfg =
    {
      (Config.default ()) with
      Config.injector = Some inj;
      watchdog = Simtime.of_ms 1;
      exec_retries = 0;
      seed = 3;
    }
  in
  let tenant id =
    Tenant.create ~id ~weight:1 ~sq_capacity:8 ~cq_capacity:8
  in
  let tenants = [| tenant 0; tenant 1 |] in
  let submit id kind seed =
    let bytes = Jobs.normalize_bytes kind 256 in
    checkb "submitted" true
      (Tenant.submit tenants.(id)
         {
           Tenant.rid = id;
           tenant = id;
           kind;
           seed;
           bytes;
           submitted_at = Simtime.zero;
         })
  in
  (* Tenant 0 dispatches first (drain order) and catches the hang. *)
  submit 0 Jobs.Adpcm 13;
  submit 1 Jobs.Idea 14;
  let svc =
    Service.create cfg (Service.default_params Sched_policy.Wfq) ~tenants
  in
  let outcome = Service.run svc Service.null_feed ~expect:2 in
  checki "both requests completed" 2 outcome.Service.o_completed;
  checkb "hang was reclaimed, not livelocked" true
    (not outcome.Service.o_exhausted);
  Alcotest.(check (list int)) "nobody starved" [] outcome.Service.o_starved;
  Alcotest.(check (list string)) "interfaces consistent" []
    outcome.Service.o_inconsistencies;
  let completion tn =
    match Ring.to_list tenants.(tn).Tenant.cq with
    | [ c ] -> c
    | l -> Alcotest.fail (Printf.sprintf "tenant %d: %d completions" tn (List.length l))
  in
  let c0 = completion 0 and c1 = completion 1 in
  checks "hung tenant degrades to the verified fallback" "degraded"
    (Tenant.status_name c0.Tenant.c_status);
  checks "the other tenant's request is untouched" "clean"
    (Tenant.status_name c1.Tenant.c_status);
  checkb "victim ran concurrently with the hang" true
    (outcome.Service.o_preemptions >= 1);
  checki "the bystander never needed a retry" 0 c1.Tenant.c_retries

(* The distilled livelock regression at the VIM level: an execution
   that hangs on its first opportunity is preempted and resumed every
   quantum. The watchdog budget must be carried across each park —
   resume used to re-arm it from scratch, so the stall was never
   reclaimed as long as a preemptive scheduler kept slicing. *)
let test_watchdog_budget_survives_preemption () =
  let inj = Injector.create ~seed:7 ~spec:[] in
  Injector.set_events inj [ (Fault.Coproc_hang, 1) ];
  let watchdog = Simtime.of_ms 1 in
  let cfg =
    { (Config.default ()) with Config.injector = Some inj; watchdog; seed = 7 }
  in
  let p =
    Platform.create ~app_name:"svc-livelock" cfg
      ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.Virtual.create
  in
  let session, _ = adpcm_setup p in
  let quantum = Simtime.of_us 50 in
  let t0 = Kernel.now p.Platform.kernel in
  (* Each slice consumes 50 us of watchdog budget but also pays the
     park/resume copy charges, so the reclaim lands well past the bare
     1 ms budget — yet with the budget carried across parks it is still
     bounded. Re-arming on resume (the old bug) never terminates. *)
  let give_up = Simtime.add t0 (Simtime.of_ms 500) in
  let session = ref session in
  let preempts = ref 0 in
  let result = ref None in
  while !result = None do
    let now = Kernel.now p.Platform.kernel in
    checkb "watchdog reclaims the hang despite slicing" true
      (Simtime.compare now give_up < 0);
    match Vim.exec_pump p.Platform.vim !session ~until:(Simtime.add now quantum) with
    | `Done r -> result := Some r
    | `Running ->
      incr preempts;
      let ctx = Vim.exec_preempt p.Platform.vim !session in
      session := Vim.exec_resume p.Platform.vim ctx
  done;
  (match !result with
  | Some (Error Vim.Hardware_stall) -> ()
  | Some (Ok ()) -> Alcotest.fail "hung execution reported success"
  | Some (Error _) -> Alcotest.fail "unexpected error kind"
  | None -> assert false);
  checkb "the stall really was sliced while hung" true (!preempts >= 5)

(* {1 Starvation detection} *)

let test_starvation_detection () =
  let cfg = { (Config.default ()) with Config.seed = 5 } in
  let lg =
    Loadgen.create ~seed:5 ~tenants:4 ~requests:80 ~rate_hz:0 ~bytes:64 ()
  in
  let params =
    {
      (Service.default_params Sched_policy.Fcfs) with
      Service.sp_starvation_budget = Simtime.of_ps 1;
    }
  in
  let svc = Service.create cfg params ~tenants:(Loadgen.tenants lg) in
  let outcome = Service.run svc (Loadgen.feed lg) ~expect:80 in
  checkb "a zero budget flags waiting tenants as starved" true
    (outcome.Service.o_starved <> []);
  let report = Slo.build ~tenants:(Loadgen.tenants lg) ~outcome in
  Alcotest.(check (list int)) "the SLO report carries the same list"
    outcome.Service.o_starved report.Slo.r_starved

(* {1 Chaos integration: scenario axes and the new invariants} *)

let test_scenario_tenant_axes_roundtrip () =
  let sc = { Scenario.default with Scenario.tenants = 5; slo_p99_ms = 250 } in
  (match Scenario.of_string (Scenario.to_string sc) with
  | Ok sc' -> checkb "tenant axes round-trip bit-exactly" true (sc' = sc)
  | Error m -> Alcotest.fail m);
  (* Pre-axis corpus lines parse with the single-tenant defaults. *)
  (match Scenario.of_string "seed=1" with
  | Ok sc' ->
    checki "omitted tenants defaults to 1" 1 sc'.Scenario.tenants;
    checki "omitted slo defaults to none" 0 sc'.Scenario.slo_p99_ms
  | Error m -> Alcotest.fail m);
  checkb "tenants=0 rejected" true
    (Result.is_error (Scenario.of_string "tenants=0"));
  checkb "negative slo rejected" true
    (Result.is_error (Scenario.of_string "slo_ms=-1"))

let test_violation_classes () =
  checks "starved class" "starved" (Chaos.violation_class (Chaos.Starved 3));
  checks "starved detail" "tenant 3 starved"
    (Chaos.violation_detail (Chaos.Starved 3));
  checks "slo-insane class" "slo-insane"
    (Chaos.violation_class (Chaos.Slo_insane "x"))

let test_chaos_service_route () =
  (* A clean multi-tenant scenario passes through the service route. *)
  let sc = { Scenario.default with Scenario.tenants = 3 } in
  let r = Chaos.run sc in
  checks "clean multi-tenant run passes" "pass" (Chaos.classification r);
  checkb "service route has no single-tenant runs" true (r.Chaos.runs = []);
  (* An absurd declared objective is reported as slo-insane. *)
  let sc = { Scenario.default with Scenario.tenants = 2; slo_p99_ms = 1 } in
  checks "declared SLO breach classifies slo-insane" "slo-insane"
    (Chaos.classification (Chaos.run sc))

(* {1 Lattice multiprogramming: closed batches on the service} *)

module Batch = Rvi_svc.Batch

(* The experiment's batch: 12 interleaved jobs at the default seed. The
   pinned values are those of the former dedicated batch scheduler
   (blocking [Vim.execute] per job): the same configurations, and
   makespans shorter by one [process_wakeup] per job — service stations
   have no sleeping caller to wake — less one 24 MHz IMU edge for each
   of the three later IDEA jobs. The old wakeup charge ran with the
   station clock on, which shifted the phase of IDEA's divided
   coprocessor slot for the next IDEA job; on the service every IDEA job
   starts in the first one's phase. *)
let test_multiprog_mixed_batch () =
  let cfg = Config.default () in
  let jobs = Batch.mixed ~seed:cfg.Config.seed ~jobs_per_app:4 in
  checki "batch size" 12 (List.length jobs);
  let fcfs = Batch.run cfg Sched_policy.Fcfs jobs in
  let grouped = Batch.run cfg Sched_policy.Grouped jobs in
  let o r = r.Batch.outcome in
  checkb "fcfs: every job clean" true (Batch.all_clean fcfs);
  checkb "grouped: every job clean" true (Batch.all_clean grouped);
  checki "fcfs jobs done" 12 (o fcfs).Service.o_completed;
  checki "fcfs reconfigures every job" 12 (o fcfs).Service.o_reconfigurations;
  checki "grouped reconfigures once per app" 3
    (o grouped).Service.o_reconfigurations;
  let ps = Simtime.to_ps in
  checki "fcfs configuration time" 360_864_000_000
    (ps (o fcfs).Service.o_configuration_time);
  checki "grouped configuration time" 90_216_000_000
    (ps (o grouped).Service.o_configuration_time);
  checkb "grouping cuts the makespan" true
    Simtime.((o grouped).Service.o_makespan < (o fcfs).Service.o_makespan);
  let cost =
    Rvi_os.Cost_model.default
      ~cpu_freq_hz:cfg.Config.device.Rvi_fpga.Device.cpu_freq_hz
  in
  let moved =
    (12 * ps (Rvi_os.Cost_model.time_of_cycles cost cost.Rvi_os.Cost_model.process_wakeup))
    - (3 * ps (Simtime.of_cycles ~hz:Calibration.idea_imu_clock_hz 1))
  in
  checki "fcfs makespan" (409_838_225_722 - moved) (ps (o fcfs).Service.o_makespan);
  checki "grouped makespan" (139_190_225_722 - moved)
    (ps (o grouped).Service.o_makespan)

let test_multiprog_single_kind () =
  (* A homogeneous batch configures once under either policy. *)
  let jobs =
    List.init 4 (fun i -> { Batch.kind = Jobs.Adpcm; seed = i; bytes = 2048 })
  in
  List.iter
    (fun policy ->
      let r = Batch.run (Config.default ()) policy jobs in
      checki "one configuration" 1 r.Batch.outcome.Service.o_reconfigurations;
      checkb "every job clean" true (Batch.all_clean r))
    [ Sched_policy.Fcfs; Sched_policy.Grouped ]

let prop_grouped_minimises_reconfig =
  QCheck.Test.make
    ~name:"grouped dispatch reconfigures once per application kind" ~count:5
    QCheck.(pair (int_bound 1000) (int_range 1 3))
    (fun (seed, per_app) ->
      let r =
        Batch.run (Config.default ()) Sched_policy.Grouped
          (Batch.mixed ~seed ~jobs_per_app:per_app)
      in
      r.Batch.outcome.Service.o_reconfigurations = 3 && Batch.all_clean r)

(* {1 Differential: one uncontended request, service vs paper path}

   The same recipe sent through [Runner] (FPGA_LOAD, FPGA_MAP_OBJECT,
   blocking FPGA_EXECUTE) and through the service (one tenant, one
   request) must produce the same output bytes and the same simulated
   HW and SW-DP time. SW-IMU is equal in paper mode; in SVA mode the
   service's ledger also holds one [tlb_update] per object window it
   programmed, which the runner drops when it resets its ledger after
   FPGA_MAP_OBJECT. *)

let runner_single cfg kind (r : Jobs.recipe) ~bytes =
  let out = ref Bytes.empty in
  let row =
    Rvi_harness.Runner.run_virtual cfg ~app:(Jobs.app_name kind)
      ~bitstream:(Jobs.bitstream kind) ~make:(Jobs.make_virtual kind)
      ~objects:r.Jobs.objects ~params:r.Jobs.params ~input_bytes:bytes
      ~verify:(fun read_obj ->
        out := read_obj r.Jobs.out_id;
        Jobs.verify r read_obj)
  in
  (row, !out)

let service_single cfg kind (r : Jobs.recipe) ~seed ~bytes =
  let tenant = Tenant.create ~id:0 ~weight:1 ~sq_capacity:1 ~cq_capacity:1 in
  ignore
    (Tenant.submit tenant
       { Tenant.rid = 0; tenant = 0; kind; seed; bytes; submitted_at = Simtime.zero });
  let svc =
    Service.create cfg (Service.default_params Sched_policy.Fcfs)
      ~tenants:[| tenant |]
  in
  let kernel = Service.kernel svc in
  (* A fresh arena places the request's buffers exactly where a fresh
     kernel's does. *)
  let out_buf =
    let k =
      Kernel.create ~engine:(Rvi_sim.Engine.create ()) ~cost:(Kernel.cost kernel) ()
    in
    snd
      (List.find
         (fun ((o : Jobs.obj), _) -> o.Jobs.id = r.Jobs.out_id)
         (Jobs.alloc k r.Jobs.objects))
  in
  let out = ref Bytes.empty and status = ref None in
  let feed =
    { Service.null_feed with
      Service.f_notify =
        (fun c ~now:_ ->
          status := Some c.Tenant.c_status;
          out := Rvi_os.Uspace.read kernel out_buf) }
  in
  ignore (Service.run svc feed ~expect:1);
  (!status, !out, Kernel.accounting kernel, Kernel.cost kernel)

let prop_service_matches_runner =
  let kinds = [| Jobs.Adpcm; Jobs.Idea; Jobs.Fir |] in
  let sizes = [| 512; 2048; 4096; 8192 |] in
  let modes = [| Translation_mode.Paper_objects; Translation_mode.Iommu_sva |] in
  QCheck.Test.make ~name:"service = runner on one uncontended request" ~count:12
    QCheck.(quad (int_bound 2) (int_bound 3) (int_bound 1) (int_range 1 1000))
    (fun (ki, si, mi, seed) ->
      let kind = kinds.(ki) and mode = modes.(mi) in
      let bytes = Jobs.normalize_bytes kind sizes.(si) in
      let cfg = { (Config.default ()) with Config.translation = mode; seed } in
      let r = Jobs.recipe (Jobs.generate kind ~seed ~bytes) in
      let row, runner_out = runner_single cfg kind r ~bytes in
      let status, svc_out, acct, cost = service_single cfg kind r ~seed ~bytes in
      let get = Rvi_os.Accounting.get acct in
      let ps = Simtime.to_ps in
      let tlb_updates =
        match mode with
        | Translation_mode.Paper_objects -> 0
        | Translation_mode.Iommu_sva ->
          List.length r.Jobs.objects
          * ps (Rvi_os.Cost_model.time_of_cycles cost cost.Rvi_os.Cost_model.tlb_update)
      in
      let label =
        Printf.sprintf "%s %dB %s seed %d" (Jobs.app_name kind) bytes
          (Translation_mode.name mode) seed
      in
      let eq what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: %s %d <> %d" label what a b
      in
      if not row.Rvi_harness.Report.verified then
        QCheck.Test.fail_reportf "%s: runner output unverified" label;
      if status <> Some Tenant.Clean then
        QCheck.Test.fail_reportf "%s: service completion not clean" label;
      if not (Bytes.equal runner_out svc_out) then
        QCheck.Test.fail_reportf "%s: output bytes differ" label;
      eq "HW ps" (ps row.Rvi_harness.Report.hw) (ps (get Rvi_os.Accounting.Hw));
      eq "SW-DP ps" (ps row.Rvi_harness.Report.sw_dp) (ps (get Rvi_os.Accounting.Sw_dp));
      eq "SW-IMU ps"
        (ps row.Rvi_harness.Report.sw_imu + tlb_updates)
        (ps (get Rvi_os.Accounting.Sw_imu));
      true)

let suite =
  [
    Alcotest.test_case "multiprog/mixed-batch" `Slow test_multiprog_mixed_batch;
    Alcotest.test_case "multiprog/single-kind" `Quick test_multiprog_single_kind;
    QCheck_alcotest.to_alcotest prop_grouped_minimises_reconfig;
    QCheck_alcotest.to_alcotest prop_service_matches_runner;
    Alcotest.test_case "ring/basics" `Quick test_ring_basics;
    QCheck_alcotest.to_alcotest prop_ring_model;
    Alcotest.test_case "service/completion-permutation" `Quick
      test_completions_are_a_permutation;
    Alcotest.test_case "serve/jobs-digest-invariant" `Slow
      test_campaign_jobs_invariant;
    Alcotest.test_case "preempt/soundness-paper" `Slow
      (preemption_soundness Translation_mode.Paper_objects);
    Alcotest.test_case "preempt/soundness-sva" `Slow
      (preemption_soundness Translation_mode.Iommu_sva);
    Alcotest.test_case "bench/serve-baseline-by-size" `Quick
      test_bench_serve_baseline_by_size;
    Alcotest.test_case "vim/context-single-use" `Quick test_context_single_use;
    Alcotest.test_case "vim/preemption-allocation" `Quick
      test_preemption_allocation;
    Alcotest.test_case "service/cross-tenant-hang-isolation" `Quick
      test_cross_tenant_hang_isolation;
    Alcotest.test_case "vim/watchdog-budget-survives-preemption" `Quick
      test_watchdog_budget_survives_preemption;
    Alcotest.test_case "service/starvation-detection" `Slow
      test_starvation_detection;
    Alcotest.test_case "scenario/tenant-axes-roundtrip" `Quick
      test_scenario_tenant_axes_roundtrip;
    Alcotest.test_case "chaos/violation-classes" `Quick test_violation_classes;
    Alcotest.test_case "chaos/service-route" `Slow test_chaos_service_route;
  ]
