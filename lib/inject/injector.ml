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

(* The kind index of every Bernoulli draw, one byte each, in draw
   order. A campaign keeps one per domain and reuses it across runs. *)
type log = { mutable kinds : Bytes.t; mutable len : int }

let create_log () = { kinds = Bytes.create 4096; len = 0 }

let record log i =
  if log.len = Bytes.length log.kinds then
    log.kinds <- Bytes.extend log.kinds 0 log.len;
  Bytes.unsafe_set log.kinds log.len (Char.unsafe_chr i);
  log.len <- log.len + 1

let copy_log log = { kinds = Bytes.sub log.kinds 0 log.len; len = log.len }

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
  mutable log : log option;
}

let threshold rate =
  if rate >= 1.0 then resolution
  else if rate <= 0.0 then 0
  else int_of_float (rate *. float_of_int resolution)

(* Counter names by kind index, formatted once rather than per injector. *)
let counter_names prefix =
  let names = Array.make Fault.n_kinds "" in
  List.iter
    (fun k -> names.(Fault.index k) <- prefix ^ Fault.name k)
    Fault.all;
  names

let chances_names = counter_names "chances_"
let injected_names = counter_names "injected_"

let make_arm stats i thr =
  {
    thr;
    c_chances = Stats.counter stats chances_names.(i);
    c_injected = Stats.counter stats injected_names.(i);
  }

let create ~seed ~spec =
  let stats = Stats.create () in
  let arms = Array.make Fault.n_kinds None in
  List.iter
    (fun r ->
      let i = Fault.index r.Spec.kind in
      arms.(i) <- Some (make_arm stats i (threshold r.Spec.rate)))
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
    log = None;
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
      if t.arms.(i) = None then t.arms.(i) <- Some (make_arm t.stats i 0);
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

let set_log t log =
  Option.iter (fun l -> l.len <- 0) log;
  t.log <- log

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

(* The one Bernoulli test: [fire] draws through it, and [quiet] replays
   a run's draws through it. *)
let bernoulli prng thr = Prng.next prng land (resolution - 1) < thr

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
      (match t.log with Some l -> record l i | None -> ());
      let hit = bernoulli t.prng arm.thr in
      if hit then begin
        Stats.tick arm.c_injected;
        match t.observer with Some f -> f kind | None -> ()
      end;
      hit
    end

let draw t bound = Prng.int t.prng bound

let injected t kind = Stats.get t.stats injected_names.(Fault.index kind)

let injected_total t =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some arm -> acc + Stats.value arm.c_injected)
    0 t.arms

type thresholds = int array

let thresholds spec =
  let thr = Array.make Fault.n_kinds 0 in
  List.iter
    (fun r -> thr.(Fault.index r.Spec.kind) <- threshold r.Spec.rate)
    spec;
  thr

let quiet ~seed thresholds log =
  let prng = Prng.create ~seed in
  let kinds = log.kinds and len = log.len in
  let k = ref 0 in
  while
    !k < len
    && not
         (bernoulli prng
            (Array.unsafe_get thresholds (Char.code (Bytes.unsafe_get kinds !k))))
  do
    incr k
  done;
  !k = len
