(* Unit and property tests for the simulation kernel (rvi_sim). *)

module Simtime = Rvi_sim.Simtime
module Event_queue = Rvi_sim.Event_queue
module Engine = Rvi_sim.Engine
module Clock = Rvi_sim.Clock
module Stats = Rvi_sim.Stats
module Prng = Rvi_sim.Prng

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Simtime} *)

let test_time_units () =
  checki "ns" 1_000 (Simtime.to_ps (Simtime.of_ns 1));
  checki "us" 1_000_000 (Simtime.to_ps (Simtime.of_us 1));
  checki "ms" 1_000_000_000 (Simtime.to_ps (Simtime.of_ms 1));
  check (Alcotest.float 1e-9) "to_ms" 1.5 (Simtime.to_ms (Simtime.of_us 1500));
  check (Alcotest.float 1e-9) "to_s" 0.002 (Simtime.to_s (Simtime.of_ms 2))

let test_time_arith () =
  let a = Simtime.of_ns 3 and b = Simtime.of_ns 5 in
  checki "add" 8_000 (Simtime.to_ps (Simtime.add a b));
  checki "sub" 2_000 (Simtime.to_ps (Simtime.sub b a));
  checki "mul" 15_000 (Simtime.to_ps (Simtime.mul a 5));
  checkb "le" true Simtime.(a <= b);
  checkb "lt" true Simtime.(a < b);
  checki "min" 3_000 (Simtime.to_ps (Simtime.min a b));
  checki "max" 5_000 (Simtime.to_ps (Simtime.max a b));
  Alcotest.check_raises "sub negative" (Invalid_argument "Simtime.sub: negative result")
    (fun () -> ignore (Simtime.sub a b))

let test_time_invalid () =
  Alcotest.check_raises "negative ps" (Invalid_argument "Simtime.of_ps: negative")
    (fun () -> ignore (Simtime.of_ps (-1)));
  Alcotest.check_raises "zero hz"
    (Invalid_argument "Simtime.period_of_hz: non-positive frequency") (fun () ->
      ignore (Simtime.period_of_hz 0))

let test_period () =
  checki "133MHz period" 7518 (Simtime.to_ps (Simtime.period_of_hz 133_000_000));
  checki "40MHz period" 25_000 (Simtime.to_ps (Simtime.period_of_hz 40_000_000));
  checki "cycles at 1GHz" 1000 (Simtime.cycles_of ~hz:1_000_000_000 (Simtime.of_us 1));
  checki "of_cycles" 25_000_000
    (Simtime.to_ps (Simtime.of_cycles ~hz:40_000_000 1000))

let test_time_pp () =
  let s t = Format.asprintf "%a" Simtime.pp t in
  check Alcotest.string "zero" "0s" (s Simtime.zero);
  check Alcotest.string "ps" "500ps" (s (Simtime.of_ps 500));
  check Alcotest.string "ms" "2.000ms" (s (Simtime.of_ms 2))

(* {1 Event_queue} *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:(Simtime.of_ns 5) "c";
  Event_queue.push q ~time:(Simtime.of_ns 1) "a";
  Event_queue.push q ~time:(Simtime.of_ns 3) "b";
  let pop () =
    match Event_queue.pop q with Some (_, x) -> x | None -> "empty"
  in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  checkb "empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  let t = Simtime.of_ns 7 in
  List.iter (fun x -> Event_queue.push q ~time:t x) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Event_queue.pop q with
    | Some (_, x) -> drain (x :: acc)
    | None -> List.rev acc
  in
  check Alcotest.(list int) "insertion order preserved" [ 1; 2; 3; 4; 5 ] (drain [])

let test_queue_peek_clear () =
  let q = Event_queue.create () in
  checkb "peek empty" true (Event_queue.peek_time q = None);
  Event_queue.push q ~time:(Simtime.of_ns 2) ();
  checkb "peek" true (Event_queue.peek_time q = Some (Simtime.of_ns 2));
  checki "length" 1 (Event_queue.length q);
  Event_queue.clear q;
  checki "cleared" 0 (Event_queue.length q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 100_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:(Simtime.of_ps t) ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> Simtime.(last <= t) && drain t
      in
      drain Simtime.zero)

let prop_queue_conserves =
  QCheck.Test.make ~name:"event_queue conserves elements" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Event_queue.create () in
      List.iteri
        (fun i x -> Event_queue.push q ~time:(Simtime.of_ps (abs x)) (i, x))
        xs;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> acc
        | Some (_, e) -> drain (e :: acc)
      in
      let out = drain [] in
      List.sort compare out = List.sort compare (List.mapi (fun i x -> (i, x)) xs))

let prop_queue_stable_ties =
  (* Same-timestamp events must pop in insertion order, and the drained
     sequence must therefore equal a stable sort of the pushes by time.
     A tiny time range makes ties the common case rather than the
     exception. *)
  QCheck.Test.make ~name:"event_queue is a stable priority queue" ~count:300
    QCheck.(list (int_bound 7))
    (fun times ->
      let q = Event_queue.create () in
      let tagged = List.mapi (fun i t -> (t, i)) times in
      List.iter
        (fun (t, i) -> Event_queue.push q ~time:(Simtime.of_ps t) (t, i))
        tagged;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, e) -> drain (e :: acc)
      in
      drain []
      = List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged)

let prop_queue_pop_monotone =
  (* Interleaved pushes and pops: whatever the schedule, the time
     returned by each pop never goes backwards relative to the previous
     pop, provided no intervening push was earlier than the watermark --
     which the generator guarantees by pushing nondecreasing times. *)
  QCheck.Test.make ~name:"event_queue pop times are monotone under interleaving"
    ~count:200
    QCheck.(list (pair (int_bound 50) bool))
    (fun ops ->
      let q = Event_queue.create () in
      let now = ref 0 in
      let last = ref Simtime.zero in
      let ok = ref true in
      List.iter
        (fun (dt, is_pop) ->
          if is_pop then (
            match Event_queue.pop q with
            | None -> ()
            | Some (t, ()) ->
              if not Simtime.(!last <= t) then ok := false;
              last := t)
          else (
            now := !now + dt;
            Event_queue.push q ~time:(Simtime.of_ps !now) ()))
        ops;
      !ok)

(* {1 Engine} *)

let test_engine_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Simtime.of_ns 10) (fun () -> log := 10 :: !log);
  Engine.schedule_at e (Simtime.of_ns 5) (fun () -> log := 5 :: !log);
  Engine.run_until e (Simtime.of_ns 7);
  check Alcotest.(list int) "only first fired" [ 5 ] !log;
  checki "time advanced to deadline" (Simtime.to_ps (Simtime.of_ns 7))
    (Simtime.to_ps (Engine.now e));
  Engine.run_until e (Simtime.of_ns 20);
  check Alcotest.(list int) "both fired" [ 10; 5 ] !log

let test_engine_advance () =
  let e = Engine.create () in
  Engine.advance e (Simtime.of_us 3);
  checki "advance moves clock" (Simtime.to_ps (Simtime.of_us 3))
    (Simtime.to_ps (Engine.now e))

let test_engine_past_schedule () =
  let e = Engine.create () in
  Engine.advance e (Simtime.of_ns 100);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e (Simtime.of_ns 10) ignore)

let test_engine_cascade () =
  (* An event scheduling another event inside the same run. *)
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule_after e (Simtime.of_ns 1) (fun () ->
      incr hits;
      Engine.schedule_after e (Simtime.of_ns 1) (fun () -> incr hits));
  Engine.run_until e (Simtime.of_ns 10);
  checki "cascaded" 2 !hits

let test_engine_run_while_stall () =
  let e = Engine.create () in
  Alcotest.check_raises "stalled" Engine.Stalled (fun () ->
      Engine.run_while e (fun () -> true))

(* {1 Clock} *)

let test_clock_edges () =
  let e = Engine.create () in
  let c = Clock.create e ~name:"c" ~freq_hz:1_000_000 in
  let ticks = ref 0 in
  Clock.add c (Clock.component ~name:"n" ~compute:(fun () -> incr ticks) ~commit:ignore ());
  Clock.start c;
  Engine.run_until e (Simtime.of_us 10);
  checki "10 edges in 10us at 1MHz" 10 !ticks;
  checki "cycles" 10 (Clock.cycles c);
  Clock.stop c;
  Engine.run_until e (Simtime.of_us 20);
  checki "no edges while stopped" 10 !ticks

let test_clock_two_phase () =
  (* Component B must see A's value from the previous edge, regardless of
     composition order. *)
  let e = Engine.create () in
  let c = Clock.create e ~name:"c" ~freq_hz:1_000_000 in
  let a = Rvi_hw.Reg.create 0 in
  let seen = ref [] in
  Clock.add c
    (Clock.compose
       (Clock.component ~name:"a"
          ~compute:(fun () -> Rvi_hw.Reg.set a (Rvi_hw.Reg.get a + 1))
          ~commit:(fun () -> Rvi_hw.Reg.commit a) ())
       (Clock.component ~name:"b"
          ~compute:(fun () -> seen := Rvi_hw.Reg.get a :: !seen)
          ~commit:ignore ()));
  Clock.start c;
  Engine.run_until e (Simtime.of_us 3);
  check Alcotest.(list int) "b sees pre-edge values" [ 2; 1; 0 ] !seen

let test_clock_divide () =
  let e = Engine.create () in
  let c = Clock.create e ~name:"c" ~freq_hz:1_000_000 in
  let fast = ref 0 and slow = ref 0 in
  Clock.add c
    (Clock.compose
       (Clock.component ~name:"f" ~compute:(fun () -> incr fast) ~commit:ignore ())
       (Clock.divided ~clock:c ~divide:4
          (Clock.component ~name:"s" ~compute:(fun () -> incr slow) ~commit:ignore ())));
  Clock.start c;
  Engine.run_until e (Simtime.of_us 16);
  checki "fast edges" 16 !fast;
  checki "slow edges" 4 !slow

let test_clock_bad_args () =
  (* A batched clock holds one component; the reference stepper takes any
     number. *)
  let e = Engine.create () in
  let x () = Clock.component ~name:"x" ~compute:ignore ~commit:ignore () in
  let c = Clock.create e ~name:"c" ~freq_hz:1000 in
  Alcotest.check_raises "bad divide" (Invalid_argument "Clock.divider: divide < 1")
    (fun () -> ignore (Clock.divided ~clock:c ~divide:0 (x ())));
  Clock.add c (x ());
  Alcotest.check_raises "second add on a batched clock"
    (Invalid_argument "Clock.add: a batched clock holds one component")
    (fun () -> Clock.add c (x ()));
  let r = Clock.create ~batched:false e ~name:"r" ~freq_hz:1000 in
  Clock.add r (x ());
  Clock.add r (x ())

let test_clock_observer () =
  let e = Engine.create () in
  let c = Clock.create e ~name:"c" ~freq_hz:1_000_000 in
  let seen = ref [] in
  Clock.on_edge c (fun cycle -> seen := cycle :: !seen);
  Clock.start c;
  Engine.run_until e (Simtime.of_us 3);
  check Alcotest.(list int) "observer cycles" [ 2; 1; 0 ] !seen

let test_clock_many_components () =
  (* Regression for the O(n^2) registration bug: [add] appended to an
     immutable list with [@ [slot]]. A thousand components must register
     quickly and still fire in registration order on every edge. *)
  let e = Engine.create () in
  let c = Clock.create ~batched:false e ~name:"c" ~freq_hz:1_000_000 in
  let n = 1000 in
  let order = ref [] in
  for i = 0 to n - 1 do
    Clock.add c
      (Clock.component
         ~name:(string_of_int i)
         ~compute:(fun () -> order := i :: !order)
         ~commit:ignore ())
  done;
  Clock.start c;
  Engine.run_until e (Simtime.of_us 3);
  checki "all components ticked every edge" (3 * n) (List.length !order);
  let edges =
    (* !order is reverse chronological: split into per-edge slices *)
    List.init 3 (fun k -> List.filteri (fun i _ -> i / n = k) !order)
  in
  List.iter
    (fun edge ->
      check
        Alcotest.(list int)
        "slot order preserved within an edge"
        (List.init n (fun i -> n - 1 - i))
        edge)
    edges

let test_clock_stop_start_phase () =
  (* Pins the documented stop/start contract: a restarted clock begins a
     fresh edge grid one full period after [start] — it does not resume
     the old grid. At 1 MHz: edges at 1,2,3 us; stop at 3.5 us; restart;
     next edges at 4.5 and 5.5 us. *)
  let e = Engine.create () in
  let c = Clock.create e ~name:"c" ~freq_hz:1_000_000 in
  let edge_times = ref [] in
  Clock.on_edge c (fun _ ->
      edge_times := Simtime.to_ps (Engine.now e) :: !edge_times);
  Clock.start c;
  Engine.run_until e (Simtime.of_ns 3500);
  Clock.stop c;
  Clock.start c;
  Engine.run_until e (Simtime.of_ns 6000);
  let ns n = Simtime.to_ps (Simtime.of_ns n) in
  check
    Alcotest.(list int)
    "edge grid restarts one period after start"
    [ ns 5500; ns 4500; ns 3000; ns 2000; ns 1000 ]
    !edge_times;
  checki "five edges counted" 5 (Clock.cycles c)

(* {2 Batched/fast-forward equivalence}

   The batched clock (one component, inline edges, idle fast-forward)
   must be observationally identical to the reference per-edge stepper,
   [~batched:false]. Components are mirrored pure models: a cyclic
   work/idle schedule over the component's own ticks, where only work
   ticks log. The batched side composes every model, each through
   [Clock.divided], into its one component; a model drawn as hinted gets
   honest [idle_hint]/[skip] implementations derived from the schedule,
   an unhinted one none (which turns skipping off for the whole
   composite). The reference side registers the models as separate,
   unhinted slots, each gating itself on [cycles mod divide = 0], and
   never consults a hint. *)

let make_sched_component ~hinted sched log =
  let n = Array.length sched in
  let ticks = ref 0 in
  let works k = sched.(k mod n) in
  let compute () = if works !ticks then log := !ticks :: !log in
  let commit () = incr ticks in
  if not hinted then
    (Clock.component ~name:"m" ~compute ~commit (), ticks)
  else
    let idle_hint () =
      let rec count k =
        if k >= n then max_int (* fully idle schedule: idle forever *)
        else if works (!ticks + k) then k
        else count (k + 1)
      in
      count 0
    in
    let skip k = ticks := !ticks + k in
    (Clock.component ~name:"m" ~idle_hint ~skip ~compute ~commit (), ticks)

let run_sched_side ~batched ~observe comps spans =
  let e = Engine.create () in
  let c = Clock.create ~batched e ~name:"c" ~freq_hz:1_000_000 in
  let parts =
    List.map
      (fun (divide, hinted, sched) ->
        let log = ref [] in
        let comp, ticks =
          make_sched_component ~hinted:(batched && hinted) sched log
        in
        let slot =
          if batched then Clock.divided ~clock:c ~divide comp
          else
            let on () = Clock.cycles c mod divide = 0 in
            Clock.component ~name:"m"
              ~compute:(fun () -> if on () then comp.Clock.compute ())
              ~commit:(fun () -> if on () then comp.Clock.commit ())
              ()
        in
        (slot, (log, ticks)))
      comps
  in
  (match List.map fst parts with
  | first :: rest when batched ->
    Clock.add c (List.fold_left Clock.compose first rest)
  | slots -> List.iter (Clock.add c) slots);
  let obs = ref [] in
  if observe then Clock.on_edge c (fun cycle -> obs := cycle :: !obs);
  Clock.start c;
  List.iter
    (fun (dur_us, toggle) ->
      if toggle then
        if Clock.running c then Clock.stop c else Clock.start c;
      Engine.advance e (Simtime.of_us dur_us))
    spans;
  ( List.map (fun (_, (log, ticks)) -> (!log, !ticks)) parts,
    Clock.cycles c,
    Simtime.to_ps (Engine.now e),
    !obs )

let gen_sched_comps =
  QCheck.(
    list_of_size
      Gen.(1 -- 4)
      (triple (int_range 1 4)
         (make Gen.(frequency [ (5, return true); (1, return false) ]))
         (list_of_size Gen.(1 -- 5) (pair (int_bound 3) (int_bound 50)))))

let build_comps raw =
  List.map
    (fun (divide, hinted, segments) ->
      let sched =
        List.concat_map
          (fun (work, idle) ->
            List.init work (fun _ -> true) @ List.init idle (fun _ -> false))
          segments
      in
      let sched = if sched = [] then [ true ] else sched in
      (divide, hinted, Array.of_list sched))
    raw

let prop_clock_batched_equiv =
  QCheck.Test.make
    ~name:"batched+fast-forward clock == reference per-edge clock" ~count:60
    QCheck.(
      pair gen_sched_comps
        (list_of_size Gen.(1 -- 6) (pair (int_range 1 300) bool)))
    (fun (raw, spans) ->
      let comps = build_comps raw in
      let fast = run_sched_side ~batched:true ~observe:false comps spans in
      let ref_ = run_sched_side ~batched:false ~observe:false comps spans in
      fast = ref_)

let prop_clock_batched_equiv_observed =
  (* With an edge observer the clock may not fast-forward (observers see
     every cycle) but still batches; both the tick streams and the
     observer's cycle stream must match the reference. *)
  QCheck.Test.make
    ~name:"batched clock with observer == reference (no fast-forward)"
    ~count:40
    QCheck.(
      pair gen_sched_comps
        (list_of_size Gen.(1 -- 4) (pair (int_range 1 120) bool)))
    (fun (raw, spans) ->
      let comps = build_comps raw in
      let fast = run_sched_side ~batched:true ~observe:true comps spans in
      let ref_ = run_sched_side ~batched:false ~observe:true comps spans in
      fast = ref_)

(* {1 Stats} *)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s ~by:4 "a";
  Stats.incr s "b";
  checki "a" 5 (Stats.get s "a");
  checki "b" 1 (Stats.get s "b");
  checki "absent" 0 (Stats.get s "zzz");
  check
    Alcotest.(list (pair string int))
    "sorted counters"
    [ ("a", 5); ("b", 1) ]
    (Stats.counters s);
  Stats.observe s "lat" 1.0;
  Stats.observe s "lat" 3.0;
  (match Stats.summary s "lat" with
  | Some { Stats.count; min; max; mean; p50; p95; p99 } ->
    checki "count" 2 count;
    check (Alcotest.float 1e-9) "min" 1.0 min;
    check (Alcotest.float 1e-9) "max" 3.0 max;
    check (Alcotest.float 1e-9) "mean" 2.0 mean;
    (* Percentiles come from the log-scale histogram: within one 5% bin. *)
    check (Alcotest.float 0.1) "p50" 1.0 p50;
    check (Alcotest.float 0.2) "p95" 3.0 p95;
    check (Alcotest.float 0.2) "p99" 3.0 p99
  | None -> Alcotest.fail "missing summary");
  Stats.reset s;
  checki "reset" 0 (Stats.get s "a")

(* {1 Prng} *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    checki "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next a = Prng.next b then incr same
  done;
  checkb "streams differ" true (!same < 5)

let prop_prng_bounds =
  QCheck.Test.make ~name:"prng int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let draws p n = List.init n (fun _ -> Prng.next p)

let prop_prng_derive_pure =
  (* derive is a pure function of (seed, index): two generators built
     from the same pair replay the same stream. *)
  QCheck.Test.make ~name:"prng derive is a pure function of (seed, index)"
    ~count:200
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, index) ->
      draws (Prng.derive ~seed ~index) 16 = draws (Prng.derive ~seed ~index) 16)

let prop_prng_derive_index_independent =
  (* Distinct indices under one seed give streams that never collide in
     their first draws -- the property the sharded campaign runner
     relies on for per-run stream independence. *)
  QCheck.Test.make
    ~name:"prng derive streams for distinct indices are independent" ~count:200
    QCheck.(triple small_int (int_bound 10_000) (int_range 1 10_000))
    (fun (seed, index, delta) ->
      let a = draws (Prng.derive ~seed ~index) 16 in
      let b = draws (Prng.derive ~seed ~index:(index + delta)) 16 in
      List.for_all2 (fun x y -> x <> y) a b)

let prop_prng_derive_seed_sensitive =
  QCheck.Test.make ~name:"prng derive streams differ across seeds" ~count:200
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, index) ->
      draws (Prng.derive ~seed ~index) 8
      <> draws (Prng.derive ~seed:(seed + 1) ~index) 8)

let test_prng_derive_decorrelated () =
  (* Adjacent indices: the xor of paired 62-bit draws should look like
     random bits, i.e. average popcount near 31 per draw. *)
  let a = Prng.derive ~seed:2004 ~index:41 in
  let b = Prng.derive ~seed:2004 ~index:42 in
  let total = ref 0 in
  let n = 64 in
  for _ = 1 to n do
    let x = Prng.next a lxor Prng.next b in
    let pop = ref 0 in
    let v = ref x in
    while !v <> 0 do
      v := !v land (!v - 1);
      incr pop
    done;
    total := !total + !pop
  done;
  let mean = float_of_int !total /. float_of_int n in
  checkb "mean xor popcount within [27, 35]" true (mean >= 27. && mean <= 35.)

let test_prng_fill () =
  let p = Prng.create ~seed:9 in
  let b = Bytes.make 64 '\000' in
  Prng.fill_bytes p b;
  let nonzero = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr nonzero) b;
  checkb "mostly nonzero" true (!nonzero > 48)

let test_prng_split () =
  let p = Prng.create ~seed:5 in
  let q = Prng.split p in
  checkb "split stream differs" true (Prng.next p <> Prng.next q)

let suite =
  [
    Alcotest.test_case "simtime/units" `Quick test_time_units;
    Alcotest.test_case "simtime/arith" `Quick test_time_arith;
    Alcotest.test_case "simtime/invalid" `Quick test_time_invalid;
    Alcotest.test_case "simtime/period" `Quick test_period;
    Alcotest.test_case "simtime/pp" `Quick test_time_pp;
    Alcotest.test_case "event_queue/order" `Quick test_queue_order;
    Alcotest.test_case "event_queue/fifo-ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "event_queue/peek-clear" `Quick test_queue_peek_clear;
    QCheck_alcotest.to_alcotest prop_queue_sorted;
    QCheck_alcotest.to_alcotest prop_queue_conserves;
    QCheck_alcotest.to_alcotest prop_queue_stable_ties;
    QCheck_alcotest.to_alcotest prop_queue_pop_monotone;
    Alcotest.test_case "engine/schedule" `Quick test_engine_schedule;
    Alcotest.test_case "engine/advance" `Quick test_engine_advance;
    Alcotest.test_case "engine/past" `Quick test_engine_past_schedule;
    Alcotest.test_case "engine/cascade" `Quick test_engine_cascade;
    Alcotest.test_case "engine/stall" `Quick test_engine_run_while_stall;
    Alcotest.test_case "clock/edges" `Quick test_clock_edges;
    Alcotest.test_case "clock/two-phase" `Quick test_clock_two_phase;
    Alcotest.test_case "clock/divide" `Quick test_clock_divide;
    Alcotest.test_case "clock/bad-args" `Quick test_clock_bad_args;
    Alcotest.test_case "clock/observer" `Quick test_clock_observer;
    Alcotest.test_case "clock/many-components" `Quick test_clock_many_components;
    Alcotest.test_case "clock/stop-start-phase" `Quick
      test_clock_stop_start_phase;
    QCheck_alcotest.to_alcotest prop_clock_batched_equiv;
    QCheck_alcotest.to_alcotest prop_clock_batched_equiv_observed;
    Alcotest.test_case "stats/counters-summaries" `Quick test_stats;
    Alcotest.test_case "prng/deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng/seed-sensitivity" `Quick test_prng_seed_sensitivity;
    QCheck_alcotest.to_alcotest prop_prng_bounds;
    QCheck_alcotest.to_alcotest prop_prng_derive_pure;
    QCheck_alcotest.to_alcotest prop_prng_derive_index_independent;
    QCheck_alcotest.to_alcotest prop_prng_derive_seed_sensitive;
    Alcotest.test_case "prng/derive-decorrelated" `Quick
      test_prng_derive_decorrelated;
    Alcotest.test_case "prng/fill" `Quick test_prng_fill;
    Alcotest.test_case "prng/split" `Quick test_prng_split;
  ]
