(* Open/closed-loop load generation.

   Everything is a pure function of the seed: the tenant plan (weights,
   application mixes) comes from one derived PRNG, each request's
   workload from a PRNG derived by request id, and the open-loop arrival
   process from a third. Interarrival jitter is integer picoseconds
   drawn uniformly in [base/2, 3*base/2) — no transcendental functions,
   so golden outputs are bit-stable across libm implementations. *)

module Simtime = Rvi_sim.Simtime
module Prng = Rvi_sim.Prng
module Jobs = Rvi_harness.Jobs

type mode =
  | Closed  (** one outstanding request per tenant; resubmit on completion *)
  | Open of int  (** aggregate arrival rate, requests per second *)

type t = {
  seed : int;
  mode : mode;
  total : int;
  base_bytes : int;
  tenants : Tenant.t array;
  mix : Jobs.app_kind array array;  (* per-tenant application cycle *)
  issue_idx : int array;  (* per-tenant issue counter (kind cycling) *)
  mutable issued : int;  (* request ids handed out *)
  mutable primed : bool;
  (* open loop: the single pending arrival *)
  arrival_g : Prng.t;
  mutable next_at : Simtime.t;
  mutable next_tenant : int;
}

let kinds = Array.of_list Jobs.all

let plan_tenant g ~id ~sq_capacity ~cq_capacity =
  let weight = 1 + Prng.int g 4 in
  let n_kinds = 1 + Prng.int g 3 in
  let mix = Array.init n_kinds (fun _ -> kinds.(Prng.int g 3)) in
  (Tenant.create ~id ~weight ~sq_capacity ~cq_capacity, mix)

let create ~seed ~tenants:n ~requests ~rate_hz ~bytes ?(sq_capacity = 64)
    ?(cq_capacity = 64) () =
  if n <= 0 then invalid_arg "Loadgen.create: need at least one tenant";
  if requests < 0 then invalid_arg "Loadgen.create: negative request count";
  let gplan = Prng.derive ~seed:(seed lxor 0x5eed1e) ~index:0 in
  let planned = Array.init n (fun id -> plan_tenant gplan ~id ~sq_capacity ~cq_capacity) in
  let arrival_g = Prng.derive ~seed:(seed lxor 0x0a41c) ~index:1 in
  let t =
    {
      seed;
      mode = (if rate_hz > 0 then Open rate_hz else Closed);
      total = requests;
      base_bytes = max 1 bytes;
      tenants = Array.map fst planned;
      mix = Array.map snd planned;
      issue_idx = Array.make n 0;
      issued = 0;
      primed = false;
      arrival_g;
      next_at = Simtime.zero;
      next_tenant = 0;
    }
  in
  (match t.mode with
  | Closed -> ()
  | Open rate ->
    let base_ps = 1_000_000_000_000 / max 1 rate in
    let gap = (base_ps / 2) + Prng.int t.arrival_g (max 1 base_ps) in
    t.next_at <- Simtime.of_ps gap;
    t.next_tenant <- Prng.int t.arrival_g n);
  t

let tenants t = t.tenants
let total t = t.total
let issued t = t.issued

let make_request t ~tenant ~now =
  let rid = t.issued in
  t.issued <- rid + 1;
  let g = Prng.derive ~seed:t.seed ~index:(rid + 1) in
  let m = t.mix.(tenant) in
  let kind = m.(t.issue_idx.(tenant) mod Array.length m) in
  t.issue_idx.(tenant) <- t.issue_idx.(tenant) + 1;
  let wseed = Prng.next g land 0x3FFF_FFFF in
  let b = (t.base_bytes / 2) + Prng.int g (max 1 t.base_bytes) in
  {
    Tenant.rid;
    tenant;
    kind;
    seed = wseed;
    bytes = Jobs.normalize_bytes kind b;
    submitted_at = now;
  }

let submit t ~tenant ~now =
  let req = make_request t ~tenant ~now in
  ignore (Tenant.submit t.tenants.(tenant) req)

(* Open loop: draw the next arrival; the generator stops after [total]. *)
let advance_arrival t =
  match t.mode with
  | Closed -> ()
  | Open rate ->
    let base_ps = 1_000_000_000_000 / max 1 rate in
    let gap = (base_ps / 2) + Prng.int t.arrival_g (max 1 base_ps) in
    t.next_at <- Simtime.add t.next_at (Simtime.of_ps gap);
    t.next_tenant <- Prng.int t.arrival_g (Array.length t.tenants)

let next_arrival t =
  match t.mode with
  | Closed -> None
  | Open _ -> if t.issued < t.total then Some t.next_at else None

let deliver t ~now =
  match t.mode with
  | Closed ->
    if not t.primed then begin
      t.primed <- true;
      (* one outstanding request per tenant to start the loop *)
      let n = Array.length t.tenants in
      let first = min n t.total in
      for tenant = 0 to first - 1 do
        submit t ~tenant ~now
      done
    end
  | Open _ ->
    let rec go () =
      if t.issued < t.total && Simtime.compare t.next_at now <= 0 then begin
        submit t ~tenant:t.next_tenant ~now:t.next_at;
        advance_arrival t;
        go ()
      end
    in
    go ()

let notify t (c : Tenant.completion) ~now =
  match t.mode with
  | Open _ -> ()
  | Closed ->
    if t.issued < t.total then submit t ~tenant:c.Tenant.c_tenant ~now

let feed t =
  {
    Service.f_next_arrival = (fun () -> next_arrival t);
    f_deliver = (fun ~now -> deliver t ~now);
    f_notify = (fun c ~now -> notify t c ~now);
  }
