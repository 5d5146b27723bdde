module Simtime = Rvi_sim.Simtime
module Config = Rvi_harness.Config
module Jobs = Rvi_harness.Jobs

type job = { kind : Jobs.app_kind; seed : int; bytes : int }

let mixed ~seed ~jobs_per_app =
  List.concat
    (List.init jobs_per_app (fun i ->
         [
           { kind = Jobs.Adpcm; seed = seed + (3 * i); bytes = 4 * 1024 };
           { kind = Jobs.Idea; seed = seed + (3 * i) + 1; bytes = 4 * 1024 };
           { kind = Jobs.Fir; seed = seed + (3 * i) + 2; bytes = 8 * 1024 };
         ]))

type result = {
  outcome : Service.outcome;
  completions : Tenant.completion list;
}

let run (cfg : Config.t) policy jobs =
  let n = max 1 (List.length jobs) in
  let tenant = Tenant.create ~id:0 ~weight:1 ~sq_capacity:n ~cq_capacity:n in
  List.iteri
    (fun rid (j : job) ->
      ignore
        (Tenant.submit tenant
           {
             Tenant.rid;
             tenant = 0;
             kind = j.kind;
             seed = j.seed;
             bytes = j.bytes;
             submitted_at = Simtime.zero;
           }))
    jobs;
  let params =
    { (Service.default_params policy) with
      (* nothing arrives later, so no job can starve behind a batch *)
      Service.sp_aging = Simtime.of_ps max_int }
  in
  let svc = Service.create cfg params ~tenants:[| tenant |] in
  let completions = ref [] in
  let feed =
    { Service.null_feed with
      Service.f_notify = (fun c ~now:_ -> completions := c :: !completions) }
  in
  let outcome = Service.run svc feed ~expect:n in
  { outcome; completions = List.rev !completions }

(* Every job is on the tenant's ring from the start, so a run that did
   not exhaust its dispatch budget completed all of them. *)
let all_clean r =
  (not r.outcome.Service.o_exhausted)
  && List.for_all
       (fun (c : Tenant.completion) -> c.Tenant.c_status = Tenant.Clean)
       r.completions

let multiprogramming ?(jobs_per_app = 4) ppf (cfg : Config.t) =
  let jobs = mixed ~seed:cfg.Config.seed ~jobs_per_app in
  let results =
    List.map
      (fun p -> (Sched_policy.name p, run cfg p jobs))
      [ Sched_policy.Fcfs; Sched_policy.Grouped ]
  in
  Format.fprintf ppf
    "@.== Extension: multiprogramming the lattice (%d mixed jobs under \
     FPGA_LOAD's exclusive lock) ==@."
    (List.length jobs);
  Format.fprintf ppf "%-10s %10s %12s %14s %10s@." "dispatch" "makespan"
    "reconfigs" "config time" "verified";
  List.iter
    (fun (name, r) ->
      let o = r.outcome in
      Format.fprintf ppf "%-10s %8.2fms %12d %12.2fms %10b@." name
        (Simtime.to_ms o.Service.o_makespan)
        o.Service.o_reconfigurations
        (Simtime.to_ms o.Service.o_configuration_time)
        (all_clean r))
    results;
  Format.fprintf ppf
    "(grouping jobs by bit-stream amortises the lattice's reconfiguration \
     cost — the scheduling concern of the related work the paper cites)@.";
  results
