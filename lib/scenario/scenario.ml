module Prng = Rvi_sim.Prng
module Spec = Rvi_inject.Spec
module Fault = Rvi_inject.Fault
module Config = Rvi_harness.Config

type t = {
  seed : int;
  apps : string list;
  input_kb : int;
  device : string;
  translation : Rvi_core.Translation_mode.t;
  imu : Config.imu_kind;
  tlb_entries : int option;
  tlb_org : Rvi_core.Tlb.organization;
  policy : string;
  prefetch_depth : int;
  transfer : Rvi_core.Vim.transfer_mode;
  rates : Spec.t;
  events : (Fault.kind * int) list;
  watchdog_us : int;
  exec_retries : int;
  max_retries : int;
  tenants : int;
  slo_p99_ms : int;
}

let default =
  {
    seed = 42;
    apps = [ "adpcm" ];
    input_kb = 4;
    device = "epxa1";
    translation = Rvi_core.Translation_mode.Paper_objects;
    imu = Config.Four_cycle;
    tlb_entries = None;
    tlb_org = Rvi_core.Tlb.Fully_associative;
    policy = "fifo";
    prefetch_depth = 0;
    transfer = Rvi_core.Vim.Double;
    rates = [];
    events = [];
    watchdog_us = 10_000;
    exec_retries = 2;
    max_retries = 3;
    tenants = 1;
    slo_p99_ms = 0;
  }

(* The seeded adversarial scenario the shrinker acceptance test starts
   from: a hung coprocessor plus a lost completion interrupt with the
   watchdog disabled. Nothing can reclaim the interface, so the run
   violates the progress invariant — and the hang alone suffices, which
   is exactly what shrinking must discover. *)
let known_bad =
  {
    default with
    apps = [ "adpcm"; "idea" ];
    events = [ (Fault.Coproc_hang, 1); (Fault.Irq_lost, 1) ];
    rates = Spec.all ~factor:0.5 ();
    watchdog_us = 0;
  }

(* {1 The knob table}

   Every axis of a scenario is one row: its scenario key, the tag that
   spells and range-checks its value (shared by the command line), its
   flag, how it reaches a platform {!Config.t}, its share of the
   shrinking measure, and its generator draw. *)

type 'a tag = { print : 'a -> string; parse : string -> ('a, string) result }

type 'a flag =
  | Opt of { name : string; docv : string; doc : string; absent : string option }
  | Switch of { name : string; doc : string; on : 'a }

type 'a knob = {
  key : string;
  tag : 'a tag;
  get : t -> 'a;
  set : t -> 'a -> t;
  flag : 'a flag option;
  config : 'a -> Config.t -> Config.t;
  weight : 'a -> int;
  reset : bool;
  keyed_errors : bool;
  draw : Prng.t -> t -> 'a;
  phase : int;
}

type any_knob = Knob : 'a knob -> any_knob

(* By default a knob weighs 1 when it differs from the default, and the
   shrinker tries resetting it. *)
let knob ?flag ?(config = fun _ c -> c) ?weight ?(reset = Option.is_none weight)
    ?(keyed_errors = true) ?(phase = 0) key tag get set ~draw =
  let d = get default in
  let weight = Option.value weight ~default:(fun v -> Bool.to_int (v <> d)) in
  Knob { key; tag; get; set; flag; config; weight; reset; keyed_errors; draw; phase }

let opt ?absent name docv doc = Opt { name; docv; doc; absent }
let switch name doc on = Switch { name; doc; on }
let pick g xs = List.nth xs (Prng.int g (List.length xs))
let tag print parse = { print; parse }
let error fmt = Printf.ksprintf Result.error fmt

let enum what cases =
  tag
    (fun v -> fst (List.find (fun (_, c) -> c = v) cases))
    (fun s ->
      Option.to_result (List.assoc_opt s cases)
        ~none:(Printf.sprintf "unknown %s %S" what s))

let int ?(min = min_int) ?(range = Printf.sprintf "must be >= %d" min) () =
  tag string_of_int (fun v ->
      match int_of_string_opt v with
      | None -> error "expected an integer, got %S" v
      | Some n -> if n >= min then Ok n else Error range)

(* [None] is one TLB entry per dual-port page. *)
let per_page (t : int tag) =
  tag
    (function None -> "per-page" | Some n -> t.print n)
    (function "per-page" -> Ok None | v -> Result.map Option.some (t.parse v))

let dashed (t : 'a list tag) =
  tag
    (function [] -> "-" | l -> t.print l)
    (function "-" -> Ok [] | v -> t.parse v)

let org =
  let open Rvi_core.Tlb in
  let named =
    enum "TLB organization" [ ("fa", Fully_associative); ("dm", Direct_mapped) ]
  in
  let sa = "sa" in
  let ways s =
    if String.starts_with ~prefix:sa s then
      int_of_string_opt (String.sub s 2 (String.length s - 2))
    else None
  in
  tag
    (function Set_associative n -> sa ^ string_of_int n | o -> named.print o)
    (fun s ->
      match ways s with
      | Some n when n > 0 -> Ok (Set_associative n)
      | _ -> named.parse s)

let event item =
  match String.index_opt item '@' with
  | None -> error "event %S: expected kind@ordinal" item
  | Some i -> (
    let kname = String.sub item 0 i in
    let ord = String.sub item (i + 1) (String.length item - i - 1) in
    match (Fault.of_name kname, int_of_string_opt ord) with
    | Some k, Some n when n > 0 -> Ok (k, n)
    | None, _ -> error "event %S: unknown fault kind" item
    | _, _ -> error "event %S: bad ordinal" item)

let events =
  tag
    (fun evs ->
      String.concat "+"
        (List.map (fun (k, n) -> Printf.sprintf "%s@%d" (Fault.name k) n) evs))
    (fun s ->
      List.fold_left
        (fun acc item ->
          Result.bind acc (fun l -> Result.map (fun e -> l @ [ e ]) (event item)))
        (Ok []) (String.split_on_char '+' s))

(* Every knob also draws its value for {!generate}. The generator draws
   phase by phase, in table order within a phase, and the draw order is
   part of the scenario format: the seed was drawn after the recovery
   budget, and the multi-tenant axes after every pre-existing field, so
   scenario (seed, index) keeps its historical single-tenant shape bar
   the new fields. A new axis takes a new phase. *)
let knobs =
  let open Rvi_core in
  let device = Rvi_fpga.Device.by_name in
  let names = List.map (fun d -> d.Rvi_fpga.Device.name) Rvi_fpga.Device.all in
  [
    knob "seed" (int ()) ~weight:(Fun.const 0) ~flag:(opt "seed" "N" "Workload seed.")
      ~config:(fun seed c -> { c with Config.seed })
      (fun t -> t.seed) (fun t seed -> { t with seed })
      ~phase:1 ~draw:(fun g _ -> Prng.next g land 0x3FFF_FFFF);
    knob "apps"
      (tag (String.concat "+") (fun v ->
           let apps = String.split_on_char '+' v in
           if List.for_all (fun a -> List.mem a Rvi_harness.Faults.app_names) apps
           then Ok apps
           else error "unknown application in %S" v))
      ~weight:(fun apps -> 4 * (List.length apps - 1))
      (fun t -> t.apps) (fun t apps -> { t with apps })
      ~draw:(fun g _ ->
        let napps = 1 + Prng.int g 2 in
        (* Rotate a deterministic starting point through the app list. *)
        let all = Rvi_harness.Faults.app_names in
        let start = Prng.int g (List.length all) in
        List.init napps (fun i -> List.nth all ((start + i) mod List.length all)));
    knob "kb" (int ~min:1 ()) ~weight:Fun.id
      (fun t -> t.input_kb) (fun t input_kb -> { t with input_kb })
      ~draw:(fun g _ -> 1 + Prng.int g 8);
    knob "dev"
      (tag Fun.id (fun v ->
           if Option.is_some (device v) then Ok v else error "unknown device %S" v))
      ~flag:
        (opt ~absent:(Option.get (device default.device)).name "device" "NAME"
           ("Target device: " ^ String.concat ", " names ^ "."))
      ~config:(fun d c -> { c with Config.device = Option.get (device d) })
      (fun t -> t.device) (fun t device -> { t with device })
      ~draw:(fun g _ -> pick g [ "epxa1"; "epxa1"; "epxa4"; "xc2vp7" ]);
    knob "mode"
      (tag Translation_mode.name (fun v ->
           Option.to_result (Translation_mode.of_name v)
             ~none:(Printf.sprintf "unknown translation mode %S" v)))
      ~flag:
        (opt "translation" "MODE"
           "Address translation: paper-objects (the paper's per-object page \
            lists, default) or iommu-sva (shared virtual addressing through \
            an L1+L2 TLB and a page-table walker).")
      ~config:(fun translation c -> { c with Config.translation })
      (fun t -> t.translation) (fun t translation -> { t with translation })
      ~draw:(fun g _ -> pick g Translation_mode.all);
    knob "imu" (enum "IMU kind" Config.imu_kinds)
      ~flag:(switch "pipelined-imu" "Use the pipelined IMU variant." Config.Pipelined)
      ~config:(fun imu_kind c -> { c with Config.imu_kind })
      (fun t -> t.imu) (fun t imu -> { t with imu })
      ~draw:(fun g _ -> pick g (List.map snd Config.imu_kinds));
    knob "tlb" (per_page (int ~min:1 ~range:"must be >= 1 or per-page" ()))
      ~flag:(opt ~absent:"" "tlb" "N" "TLB entries (default: one per page).")
      ~config:(fun tlb_entries c -> { c with Config.tlb_entries })
      (fun t -> t.tlb_entries) (fun t tlb_entries -> { t with tlb_entries })
      ~draw:(fun g _ -> pick g [ None; None; Some 4; Some 8 ]);
    knob "org" org
      ~config:(fun tlb_organization c -> { c with Config.tlb_organization })
      (fun t -> t.tlb_org) (fun t tlb_org -> { t with tlb_org })
      ~draw:(fun g _ ->
        pick g
          Tlb.[ Fully_associative; Fully_associative; Direct_mapped; Set_associative 2 ]);
    knob "policy" (enum "policy" (List.map (fun n -> (n, n)) Policy.all_names))
      ~flag:
        (opt "policy" "NAME"
           ("Replacement policy: " ^ String.concat ", " Policy.all_names ^ "."))
      ~config:(fun policy c -> { c with Config.policy })
      (fun t -> t.policy) (fun t policy -> { t with policy })
      ~draw:(fun g _ -> pick g Policy.all_names);
    knob "pf" (int ~min:0 ())
      ~flag:(opt "prefetch" "DEPTH" "Sequential prefetch depth (0 disables).")
      ~config:(fun depth c ->
        let prefetch = if depth <= 0 then Prefetch.off else Prefetch.sequential ~depth in
        { c with Config.prefetch })
      (fun t -> t.prefetch_depth)
      (fun t prefetch_depth -> { t with prefetch_depth })
      ~draw:(fun g _ -> Prng.int g 3);
    knob "xfer" (enum "transfer mode" Config.transfers)
      ~flag:
        (opt "transfer" "MODE"
           "Page transfer mode: double (paper's naive VIM) or single.")
      ~config:(fun transfer c -> { c with Config.transfer })
      (fun t -> t.transfer) (fun t transfer -> { t with transfer })
      ~draw:(fun g _ -> pick g [ Vim.Single; Vim.Double ]);
    knob "rates" (dashed (tag Spec.to_string Spec.parse))
      ~keyed_errors:false ~weight:(fun rates -> 5 * List.length rates)
      (fun t -> t.rates) (fun t rates -> { t with rates })
      ~draw:(fun g _ ->
        match Prng.int g 4 with
        | 0 -> []
        | 1 -> Spec.all ~factor:0.5 ()
        | 2 -> Spec.all ()
        | _ ->
          (* Pressure on a single kind, at several times its default rate. *)
          let kind = pick g Fault.all in
          [ { Spec.kind; rate = Stdlib.min 1.0 (4.0 *. Spec.default_rate kind) } ]);
    knob "events" (dashed events)
      ~keyed_errors:false ~weight:(fun evs -> 10 * List.length evs)
      (fun t -> t.events) (fun t events -> { t with events })
      ~draw:(fun g _ ->
        List.init (Prng.int g 3) (fun _ ->
            (pick g Fault.all, 1 + Prng.int g 3))
        (* Distinct ordinals per kind: set_events rejects duplicates by
           deduplicating, so collapse here for a stable measure. *)
        |> List.sort_uniq compare);
    (* "Watchdog disabled" still needs the simulation to terminate; a 2 s
       backstop is four times the chaos progress-gap threshold (500 ms), so
       a run saved only by the backstop is always classified as a violation. *)
    knob "wd_us" (int ~min:0 ()) ~weight:(Fun.const 0)
      ~config:(fun us c ->
        let watchdog = Rvi_sim.Simtime.of_us (if us = 0 then 2_000_000 else us) in
        { c with Config.watchdog })
      (fun t -> t.watchdog_us) (fun t watchdog_us -> { t with watchdog_us })
      ~draw:(fun g _ -> 1_000 + Prng.int g 49_001);
    knob "retries" (int ~min:0 ())
      ~config:(fun exec_retries c -> { c with Config.exec_retries })
      (fun t -> t.exec_retries) (fun t exec_retries -> { t with exec_retries })
      ~draw:(fun g _ -> 1 + Prng.int g 3);
    knob "vim_retries" (int ~min:0 ())
      ~config:(fun max_retries c ->
        { c with Config.recovery = { Vim.default_recovery with max_retries } })
      (fun t -> t.max_retries) (fun t max_retries -> { t with max_retries })
      ~draw:(fun g _ -> 1 + Prng.int g 4);
    (* Roughly one scenario in four goes through the service; declared
       SLOs are generous — sub-second makespans mean any breach is a
       genuine scheduling bug, not load. *)
    knob "tenants" (int ~min:1 ()) ~reset:true ~weight:(fun n -> 3 * (n - 1))
      (fun t -> t.tenants) (fun t tenants -> { t with tenants })
      ~phase:2 ~draw:(fun g _ -> if Prng.int g 4 = 0 then 2 + Prng.int g 7 else 1);
    knob "slo_ms" (int ~min:0 ())
      (fun t -> t.slo_p99_ms) (fun t slo_p99_ms -> { t with slo_p99_ms })
      ~phase:2 ~draw:(fun g t ->
        if t.tenants > 1 && Prng.int g 2 = 0 then 5_000 + Prng.int g 5_000 else 0);
  ]

(* {1 Serialisation}

   One scenario per line, [key=value] pairs joined by [;] in table order,
   so a corpus file diffs cleanly and a line round-trips bit-exactly.
   Empty lists print as ["-"]. *)

let to_string t =
  String.concat ";"
    (List.map (fun (Knob k) -> k.key ^ "=" ^ k.tag.print (k.get t)) knobs)

let of_string line =
  let field sc f =
    match String.index_opt f '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" f)
    | Some i -> (
      let key = String.sub f 0 i in
      let v = String.sub f (i + 1) (String.length f - i - 1) in
      match List.find_opt (fun (Knob k) -> k.key = key) knobs with
      | None -> Error (Printf.sprintf "unknown scenario field %S" key)
      | Some (Knob k) ->
        k.tag.parse v
        |> Result.map (k.set sc)
        |> Result.map_error (fun m -> if k.keyed_errors then key ^ ": " ^ m else m))
  in
  List.fold_left
    (fun acc f -> Result.bind acc (fun sc -> field sc f))
    (Ok default)
    (String.split_on_char ';' (String.trim line))

(* {1 Generation}

   Every dimension is drawn from [Prng.derive ~seed ~index], so scenario
   [i] of a campaign is a function of the campaign seed and [i] alone —
   independent of sharding, host, or how many scenarios precede it.

   Generated scenarios stay within the envelope the recovery machinery is
   specified to survive: watchdogs are sane (1-50 ms), retry budgets are
   nonzero, and fault pressure is bounded. Anything the checker flags in
   this envelope is a real robustness bug, not a configuration the system
   is entitled to fail on. *)

let generate ~seed ~index =
  let g = Prng.derive ~seed ~index in
  List.stable_sort (fun (Knob a) (Knob b) -> compare a.phase b.phase) knobs
  |> List.fold_left (fun t (Knob k) -> k.set t (k.draw g t)) default

(* {1 Shrinking order}

   The measure the shrinker strictly decreases: fault events dominate,
   then rate rules, then workload breadth, then every geometry field that
   differs from the default. A minimal repro is the scenario with the
   smallest measure that still shows the original violation class. *)

let measure t = List.fold_left (fun n (Knob k) -> n + k.weight (k.get t)) 0 knobs

let resets t =
  List.filter_map
    (fun (Knob k) -> if k.reset then Some (k.set t (k.get default)) else None)
    knobs

let config t =
  List.fold_left (fun c (Knob k) -> k.config (k.get t) c) (Config.default ()) knobs
