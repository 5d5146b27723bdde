(* The serve campaign: one cell per (policy, translation mode), each an
   independent seeded simulation, fanned out over the persistent domain
   pool. Cells share nothing mutable, so the result list — and the
   per-request classification digest — is a pure function of the cell
   list, never of [--jobs]. *)

module Simtime = Rvi_sim.Simtime
module Config = Rvi_harness.Config
module Jobs = Rvi_harness.Jobs
module Translation_mode = Rvi_core.Translation_mode
module Par = Rvi_par.Par

type cell = {
  cl_policy : Sched_policy.t;
  cl_translation : Translation_mode.t;
  cl_seed : int;
  cl_tenants : int;
  cl_requests : int;
  cl_rate_hz : int;  (* 0 = closed loop *)
  cl_quantum_us : int;
  cl_bytes : int;
}

type cell_result = {
  cr_cell : cell;
  cr_report : Slo.report;
  cr_outcome : Service.outcome;
  cr_csv : string;
  cr_digest : string;
  cr_wall_s : float;
}

let cell_label c =
  Printf.sprintf "%s/%s"
    (Sched_policy.name c.cl_policy)
    (Translation_mode.name c.cl_translation)

let csv_header = "policy,mode,rid,tenant,kind,status,preemptions,retries,latency_us\n"

let run_cell (c : cell) =
  let t0 = Unix.gettimeofday () in
  let cfg =
    { (Config.default ()) with
      Config.translation = c.cl_translation;
      seed = c.cl_seed }
  in
  let lg =
    Loadgen.create ~seed:c.cl_seed ~tenants:c.cl_tenants
      ~requests:c.cl_requests ~rate_hz:c.cl_rate_hz ~bytes:c.cl_bytes ()
  in
  let tenants = Loadgen.tenants lg in
  let params =
    { (Service.default_params c.cl_policy) with
      Service.sp_quantum = Simtime.of_us c.cl_quantum_us;
      (* closed-loop rotation over many tenants is slow but fair; scale
         the starvation budget with the fleet so it only fires on a
         tenant that is actually stuck while others advance *)
      sp_starvation_budget = Simtime.of_ms (2_000 + (10 * c.cl_tenants)) }
  in
  let svc = Service.create cfg params ~tenants in
  let buf = Buffer.create 4096 in
  let policy_name = Sched_policy.name c.cl_policy in
  let mode_name = Translation_mode.name c.cl_translation in
  let base = Loadgen.feed lg in
  let feed =
    { base with
      Service.f_notify =
        (fun (comp : Tenant.completion) ~now ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%d,%d,%s,%s,%d,%d,%d\n" policy_name
               mode_name comp.Tenant.c_rid comp.Tenant.c_tenant
               (Jobs.app_name comp.Tenant.c_kind)
               (Tenant.status_name comp.Tenant.c_status)
               comp.Tenant.c_preemptions comp.Tenant.c_retries
               (Tenant.latency_us comp));
          base.Service.f_notify comp ~now) }
  in
  let outcome = Service.run svc feed ~expect:c.cl_requests in
  Rvi_os.Kernel.release (Service.kernel svc);
  let csv = Buffer.contents buf in
  {
    cr_cell = c;
    cr_report = Slo.build ~tenants ~outcome;
    cr_outcome = outcome;
    cr_csv = csv;
    cr_digest = Digest.to_hex (Digest.string csv);
    cr_wall_s = Unix.gettimeofday () -. t0;
  }

let cells ~policies ~translations ~seed ~tenants ~requests ~rate_hz ~quantum_us
    ~bytes =
  List.concat_map
    (fun p ->
      List.map
        (fun tr ->
          {
            cl_policy = p;
            cl_translation = tr;
            cl_seed = seed;
            cl_tenants = tenants;
            cl_requests = requests;
            cl_rate_hz = rate_hz;
            cl_quantum_us = quantum_us;
            cl_bytes = bytes;
          })
        translations)
    policies

let campaign ?(jobs = 1) cs =
  if jobs <= 1 then List.map run_cell cs
  else Par.Pool.map (Par.Pool.shared ~domains:jobs) ~chunk:1 run_cell cs

let digest results = String.concat "+" (List.map (fun r -> r.cr_digest) results)

let violations r =
  let report = r.cr_report in
  List.concat
    [
      List.map
        (fun id -> Printf.sprintf "%s: tenant %d starved" (cell_label r.cr_cell) id)
        report.Slo.r_starved;
      List.map
        (fun m -> Printf.sprintf "%s: %s" (cell_label r.cr_cell) m)
        r.cr_outcome.Service.o_inconsistencies;
      (if report.Slo.r_sane then []
       else [ Printf.sprintf "%s: insane SLO report (p99 < p50)" (cell_label r.cr_cell) ]);
      (if r.cr_outcome.Service.o_exhausted then
         [ Printf.sprintf "%s: dispatch budget exhausted" (cell_label r.cr_cell) ]
       else []);
    ]
