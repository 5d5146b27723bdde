type component = {
  name : string;
  compute : unit -> unit;
  commit : unit -> unit;
  idle_hint : (unit -> int) option;
  skip : (int -> unit) option;
}

let component ?idle_hint ?skip ~name ~compute ~commit () =
  (match (idle_hint, skip) with
  | Some _, None | None, Some _ ->
    invalid_arg "Clock.component: idle_hint and skip must be given together"
  | Some _, Some _ | None, None -> ());
  { name; compute; commit; idle_hint; skip }

(* Two same-rate components composed run [a]'s phase before [b]'s in both
   halves of the edge, which is exactly the global order separate slots
   of the reference stepper produce. Idle windows compose as the min of
   the hints; a skip is forwarded to both. When the composite executes an
   edge on which one side could have been skipped, that side's
   [compute]/[commit] run instead of its [skip 1] — the hint contract
   (executing a tick is always exact, and a positive hint promises [skip]
   applies it exactly) makes the two indistinguishable. *)
let compose a b =
  let name = a.name ^ "+" ^ b.name in
  let compute () =
    a.compute ();
    b.compute ()
  in
  let commit () =
    a.commit ();
    b.commit ()
  in
  match (a.idle_hint, a.skip, b.idle_hint, b.skip) with
  | Some ha, Some sa, Some hb, Some sb ->
    component ~name
      ~idle_hint:(fun () ->
        let x = ha () in
        if x <= 0 then 0
        else
          let y = hb () in
          if x < y then x else y)
      ~skip:(fun k ->
        sa k;
        sb k)
      ~compute ~commit ()
  | _ -> component ~name ~compute ~commit ()

type t = {
  engine : Engine.t;
  clk_name : string;
  freq_hz : int;
  period : Simtime.t;
  batched : bool;
  (* flat arrays in registration order: O(1) add, allocation-free edges;
     a batched clock holds at most one slot *)
  mutable slots : component array; (* first [n_slots] entries are live *)
  mutable n_slots : int;
  mutable observers : (int -> unit) array; (* first [n_observers] live *)
  mutable n_observers : int;
  mutable cycles : int;
  mutable running : bool;
  mutable generation : int; (* invalidates edges scheduled before a stop *)
}

let create ?(batched = true) engine ~name ~freq_hz =
  {
    engine;
    clk_name = name;
    freq_hz;
    period = Simtime.period_of_hz freq_hz;
    batched;
    slots = [||];
    n_slots = 0;
    observers = [||];
    n_observers = 0;
    cycles = 0;
    running = false;
    generation = 0;
  }

let add t comp =
  if t.batched && t.n_slots > 0 then
    invalid_arg "Clock.add: a batched clock holds one component";
  if t.n_slots = Array.length t.slots then begin
    let grown = Array.make (Int.max 4 (2 * t.n_slots)) comp in
    Array.blit t.slots 0 grown 0 t.n_slots;
    t.slots <- grown
  end;
  t.slots.(t.n_slots) <- comp;
  t.n_slots <- t.n_slots + 1

let on_edge t f =
  if t.n_observers = Array.length t.observers then begin
    let grown = Array.make (Int.max 4 (2 * t.n_observers)) f in
    Array.blit t.observers 0 grown 0 t.n_observers;
    t.observers <- grown
  end;
  t.observers.(t.n_observers) <- f;
  t.n_observers <- t.n_observers + 1

(* {2 Clock division}

   A coprocessor on [clock / divide] ticks on the edges whose cycle index
   is a multiple of [divide]. A power-of-two divide takes the phase with a
   mask and counts multiples with a shift. *)

type divider = { divide : int; mask : int; shift : int }

let divider divide =
  if divide < 1 then invalid_arg "Clock.divider: divide < 1";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  {
    divide;
    mask = (if divide land (divide - 1) = 0 then divide - 1 else -1);
    shift = log2 divide;
  }

let[@inline] phase d c = if d.mask >= 0 then c land d.mask else c mod d.divide
let[@inline] enabled t d = phase d t.cycles = 0

(* Edges from the current one up to (not including) the edge of the
   [h + 1]-th divided tick: the lead to the next enabled edge, then [h]
   whole periods of the divided clock. *)
let[@inline] edges_of_ticks t d h =
  let r = phase d t.cycles in
  let lead = if r = 0 then 0 else d.divide - r in
  if h <= 0 then lead
  else if h >= (max_int - lead) / d.divide then max_int
  else lead + (h * d.divide)

(* Enabled edges (multiples of [divide]) in [cycles, cycles + k). *)
let[@inline] ticks_of_edges t d k =
  let c = t.cycles + d.divide - 1 in
  if d.mask >= 0 then ((c + k) asr d.shift) - (c asr d.shift)
  else ((c + k) / d.divide) - (c / d.divide)

let divided ~clock ~divide c =
  let d = divider divide in
  if divide = 1 then c
  else
    let compute () = if enabled clock d then c.compute () in
    let commit () = if enabled clock d then c.commit () in
    match (c.idle_hint, c.skip) with
    | Some hint, Some skip ->
      component ~name:c.name ~compute ~commit
        ~idle_hint:(fun () -> edges_of_ticks clock d (hint ()))
        ~skip:(fun k ->
          let n = ticks_of_edges clock d k in
          if n > 0 then skip n)
        ()
    | _ -> component ~name:c.name ~compute ~commit ()

(* {2 Running edges} *)

let observe t cycle =
  for i = 0 to t.n_observers - 1 do
    (Array.unsafe_get t.observers i) cycle
  done

(* One rising edge of the reference stepper: every compute runs before any
   commit, and observers see the just-completed index after all commits.
   No hint is consulted. *)
let step t =
  let cycle = t.cycles in
  for i = 0 to t.n_slots - 1 do
    (Array.unsafe_get t.slots i).compute ()
  done;
  for i = 0 to t.n_slots - 1 do
    (Array.unsafe_get t.slots i).commit ()
  done;
  t.cycles <- cycle + 1;
  observe t cycle

let idle = component ~name:"idle" ~compute:ignore ~commit:ignore ()
let no_hint () = 0

(* Edge batching. Inside an engine run span (horizon [h] published), the
   batched clock's one component runs its edges in this loop, advancing
   time itself, as long as the next edge falls inside the span, strictly
   before any queued event, and no interrupt source requested a break.
   After every edge the component's hint says how many upcoming edges
   [skip] may apply instead; the loop jumps over them, capped by the
   horizon and the queue head, so the edge after an idle window is the
   next one executed. Each condition failing falls back to scheduling one
   event at the next edge time — the reference per-edge behaviour — so
   run loops observe the same event times and the same engine [now] at
   every boundary. A clock with observers never skips: they see every
   edge. *)
let batch t gen self h =
  let e = t.engine in
  (* The horizon is fixed for the whole inline chain (only a run loop
     moves it, and no engine event dispatches between inline edges), so
     everything per-chain — horizon, period, the component's closures,
     the engine clock reading — is hoisted out of the per-edge loop; the
     current time is carried forward from each jump instead of re-read.
     Only the break flag and the queue head can change under an edge
     (computes may raise interrupts or schedule events) and those are
     the two re-checked each iteration. *)
  let h_ps = Simtime.to_ps h in
  let period_ps = Simtime.to_ps t.period in
  let s = if t.n_slots = 0 then idle else Array.unsafe_get t.slots 0 in
  let hint_fn = match s.idle_hint with Some f -> f | None -> no_hint in
  let skip_fn = match s.skip with Some f -> f | None -> ignore in
  let now_ps = ref (Simtime.to_ps (Engine.now e)) in
  (* Time and cycles advance in lockstep along the chain, so the cycle
     bound [c - 1 + (x - now_ps) / period_ps] of a later time [x] is
     [(x - base_ps) / period_ps] (at [x = now_ps] both read below [c]):
     one division per chain and per queue head, not two per edge. *)
  let base_ps = !now_ps - (t.cycles * period_ps) in
  let h_cycle = (h_ps - base_ps) / period_ps in
  let peek_seen = ref (-1) and peek_cycle = ref 0 in
  let continue = ref true in
  while !continue do
    s.compute ();
    s.commit ();
    let cycle = t.cycles in
    t.cycles <- cycle + 1;
    if t.n_observers > 0 then observe t cycle;
    if t.running && gen = t.generation then begin
      let broke = Engine.take_break e in
      let peek_ps = Engine.peek_ps e in
      let steps =
        if broke || h_ps <= !now_ps || t.n_observers > 0 then 1
        else begin
          let hint = hint_fn () in
          if hint <= 0 then 1
          else begin
            let c = t.cycles in
            let wake = if hint >= max_int - c then max_int else c + hint in
            let tgt = Int.min wake h_cycle in
            let tgt =
              if peek_ps = max_int then tgt
              else begin
                if peek_ps <> !peek_seen then begin
                  peek_seen := peek_ps;
                  peek_cycle := (peek_ps - base_ps - 1) / period_ps
                end;
                Int.min tgt !peek_cycle
              end
            in
            if tgt <= c then 1
            else begin
              skip_fn (tgt - c);
              t.cycles <- tgt;
              tgt - c + 1
            end
          end
        end
      in
      let te_ps = !now_ps + (steps * period_ps) in
      if (not broke) && te_ps <= h_ps && te_ps < peek_ps then begin
        (* [te_ps] was just bounded by the queue head and exceeds the
           carried now, so a checked jump would re-prove both. *)
        Engine.jump_unchecked e (Simtime.of_ps te_ps);
        now_ps := te_ps
      end
      else begin
        continue := false;
        Engine.schedule_at e (Simtime.of_ps te_ps) self
      end
    end
    else continue := false
  done

(* Stop/start semantics (asserted by a regression test): [stop] discards
   edge phase, and after [start] the next edge fires exactly one period
   after the [start] call — a restarted domain behaves like a freshly
   released reset, it does not resume the old edge grid. VIM
   reconfiguration relies on this: the coprocessor clock is stopped while
   the PLD is reprogrammed and the new configuration starts a fresh
   timing grid. *)
let start t =
  if not t.running then begin
    t.running <- true;
    t.generation <- t.generation + 1;
    let gen = t.generation in
    let rec self () =
      if t.running && gen = t.generation then
        match if t.batched then Engine.horizon t.engine else None with
        | Some h -> batch t gen self h
        | None ->
          step t;
          if t.running && gen = t.generation then
            Engine.schedule_after t.engine t.period self
    in
    Engine.schedule_after t.engine t.period self
  end

let stop t =
  if t.running then begin
    t.running <- false;
    t.generation <- t.generation + 1
  end

(* Platform pooling: stop the domain and rewind the cycle counter so the
   next [start] behaves exactly like the first edge of a fresh clock —
   same cycle indices, same divided-clock phases. Registered components
   and observers are kept (the pooled platform re-wires state, not
   structure). *)
let reset t =
  t.running <- false;
  t.generation <- t.generation + 1;
  t.cycles <- 0

let running t = t.running
let cycles t = t.cycles
let freq_hz t = t.freq_hz
let period t = t.period
let name t = t.clk_name
