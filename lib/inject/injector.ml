module Prng = Rvi_sim.Prng
module Stats = Rvi_sim.Stats

(* Bernoulli draws compare a 30-bit slice of the PRNG stream against a
   precomputed integer threshold: cheap, exact for rate 0 and 1, and
   deterministic across platforms (no float accumulation). *)
let resolution = 1 lsl 30

(* Pre-resolved per-kind state: threshold plus counter handles, so the
   hot [fire] path (every guarded PLD access) neither walks an assoc list
   nor formats counter names. *)
type arm = {
  thr : int;
  c_chances : Stats.counter;
  c_injected : Stats.counter;
}

type t = {
  prng : Prng.t;
  arms : arm option array; (* indexed by Fault.index *)
  spec : Spec.t;
  seed : int;
  stats : Stats.t;
  (* Deterministic one-shot events: per kind, the remaining 1-based
     opportunity ordinals at which the fault fires, sorted ascending.
     [opps] counts opportunities seen for kinds with events armed. Event
     hits consume no PRNG state, so the Bernoulli streams of other kinds
     are unaffected by arming events. *)
  events : int list array;
  opps : int array;
  mutable enabled : bool;
  mutable observer : (Fault.kind -> unit) option;
}

let threshold rate =
  if rate >= 1.0 then resolution
  else if rate <= 0.0 then 0
  else int_of_float (rate *. float_of_int resolution)

let create ~seed ~spec =
  let stats = Stats.create () in
  let arms = Array.make Fault.n_kinds None in
  List.iter
    (fun r ->
      let kind = r.Spec.kind in
      arms.(Fault.index kind) <-
        Some
          {
            thr = threshold r.Spec.rate;
            c_chances =
              Stats.counter stats
                (Printf.sprintf "chances_%s" (Fault.name kind));
            c_injected =
              Stats.counter stats
                (Printf.sprintf "injected_%s" (Fault.name kind));
          })
    spec;
  {
    prng = Prng.create ~seed;
    arms;
    spec;
    seed;
    stats;
    events = Array.make Fault.n_kinds [];
    opps = Array.make Fault.n_kinds 0;
    enabled = true;
    observer = None;
  }

(* Arm deterministic events. Counter handles are created on demand so an
   event-only kind still shows up in the per-kind statistics. *)
let set_events t evs =
  List.iter
    (fun (kind, n) ->
      if n <= 0 then
        invalid_arg
          (Printf.sprintf "Injector.set_events: ordinal %d for %s (want >= 1)"
             n (Fault.name kind));
      let i = Fault.index kind in
      if t.arms.(i) = None then
        t.arms.(i) <-
          Some
            {
              thr = 0;
              c_chances =
                Stats.counter t.stats
                  (Printf.sprintf "chances_%s" (Fault.name kind));
              c_injected =
                Stats.counter t.stats
                  (Printf.sprintf "injected_%s" (Fault.name kind));
            };
      t.events.(i) <- List.sort_uniq Int.compare (n :: t.events.(i)))
    evs

let pending_events t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.events

let seed t = t.seed
let spec t = t.spec
let stats t = t.stats
let set_enabled t b = t.enabled <- b
let enabled t = t.enabled
let set_observer t f = t.observer <- f
let observed t = Option.is_some t.observer

(* Event check for one opportunity: counts the opportunity and answers
   whether the head event fires now. Only consulted while events remain
   armed for the kind, so drained kinds pay nothing. *)
let event_fires t i =
  match t.events.(i) with
  | [] -> false
  | n :: rest ->
    t.opps.(i) <- t.opps.(i) + 1;
    if t.opps.(i) = n then begin
      t.events.(i) <- rest;
      true
    end
    else false

let fire t kind =
  let i = Fault.index kind in
  match Array.unsafe_get t.arms i with
  | None -> false
  | Some arm ->
    if not t.enabled then false
    else if event_fires t i then begin
      (* A deterministic hit: counted like a Bernoulli one, but without
         consuming PRNG state (the event replaces this opportunity's
         draw). *)
      Stats.tick arm.c_chances;
      Stats.tick arm.c_injected;
      (match t.observer with Some f -> f kind | None -> ());
      true
    end
    else if arm.thr = 0 then false
    else begin
      Stats.tick arm.c_chances;
      let hit = Prng.next t.prng land (resolution - 1) < arm.thr in
      if hit then begin
        Stats.tick arm.c_injected;
        match t.observer with Some f -> f kind | None -> ()
      end;
      hit
    end

let draw t bound = Prng.int t.prng bound

let injected t kind =
  Stats.get t.stats (Printf.sprintf "injected_%s" (Fault.name kind))

let injected_total t =
  List.fold_left (fun acc k -> acc + injected t k) 0 Fault.all
