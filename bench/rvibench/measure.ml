(* What one workload invocation collects: metric values by name, the ops
   attempted and failed in the timed reps, and every failed check. *)

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let create () =
  { values = Hashtbl.create 64; attempted = 0; failed = 0; failures = [] }

let set t name v = Hashtbl.replace t.values name v
let get t name = Option.value (Hashtbl.find_opt t.values name) ~default:0.0
let check t ok what = if not ok then t.failures <- what :: t.failures

(* Set-up is repeated this many times and reported as the median. *)
let setup_reps = 11

(* The median rep needs a few reps to choose from even when one rep
   outlasts [--seconds]. *)
let min_reps = 3

(* {1 Host speed}

   On a shared host this process's speed moves by up to 1.7x in episodes
   of seconds to minutes (README.md, finding e). Host times of the
   end-to-end metrics are therefore scaled to a reference host: every
   timed stretch is bracketed by runs of a fixed kernel that shares no
   code with the simulator and allocates nothing, and multiplied by the
   kernel's nominal time over its measured time. *)

(* The kernel's host time on the 2-core VM of README.md's baseline, in a
   quiet period. *)
let reference_nominal_s = 0.2

let reference_buffer = lazy (Bytes.create (4 lsl 20))

(* Dependent loads and stores spread over 4 MB, with integer mixing. *)
let reference_s () =
  let mem = Lazy.force reference_buffer in
  let size = Bytes.length mem in
  let start = Span.now_ns () in
  Bytes.fill mem 0 size '\001';
  let acc = ref 1 and pc = ref 0 in
  for i = 1 to 10_000_000 do
    let addr = ((!pc * 2654435761) + i) land (size - 8) in
    let v = Int32.to_int (Bytes.get_int32_le mem addr) in
    Bytes.set_int32_le mem ((addr + 4096) land (size - 8)) (Int32.of_int (v + !acc));
    acc := ((!acc * 31) + v) land 0xFFFF;
    pc := !pc + 1 + (!acc land 3)
  done;
  Span.seconds_since start

(* [host_s] scaled to the reference host, given the kernel's mean time
   around it. *)
let adjusted ~ref_s host_s = host_s *. reference_nominal_s /. ref_s

type rep = {
  host_s : float;
  ref_s : float;  (** mean of the reference runs just before and after *)
}

(* Runs [rep] back to back, each followed by a reference run, [check]ing
   each result outside the timed span, until another rep as long as the
   last would pass [seconds]. *)
let timed_reps ~seconds ~rep ~check =
  let t0 = Span.now_ns () in
  let rec go acc n ref_before =
    let s = Span.now_ns () in
    let v = rep () in
    let host_s = Span.seconds_since s in
    check v;
    let ref_after = reference_s () in
    let acc = { host_s; ref_s = (ref_before +. ref_after) /. 2.0 } :: acc in
    if n + 1 >= min_reps && Span.seconds_since t0 +. host_s > float_of_int seconds
    then List.rev acc
    else go acc (n + 1) ref_after
  in
  go [] 0 (reference_s ())

let host_seconds reps = List.map (fun r -> r.host_s) reps

(* Set-up time: [f] run [setup_reps] times on a collected heap, scaled
   to the reference host by runs of the kernel either side. *)
let setup_samples f =
  let before = reference_s () in
  let samples =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let s = Span.now_ns () in
        f ();
        Span.seconds_since s)
  in
  let ref_s = (before +. reference_s ()) /. 2.0 in
  List.map (adjusted ~ref_s) samples

(* VmHWM of this process: every workload runs in its own process, so
   this is the workload's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* Allocation per op over [f], from [Gc.quick_stat] deltas. *)
let gc_around t ~ops f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  let per_op x = Stat.ratio x (float_of_int (ops v)) in
  set t "gc.minor_words_per_op" (per_op (g1.Gc.minor_words -. g0.Gc.minor_words));
  set t "gc.promoted_words_per_op"
    (per_op (g1.Gc.promoted_words -. g0.Gc.promoted_words));
  set t "gc.major_collections_per_kop"
    (1000.0 *. per_op (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
  set t "gc.top_heap_mb"
    (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  v

let set_end_to_end t ~ops ~reps ~setup =
  let per_s f = Stat.median (List.map (fun r -> float_of_int ops /. f r) reps) in
  set t "ops_per_s" (per_s (fun r -> adjusted ~ref_s:r.ref_s r.host_s));
  set t "setup_s" (Stat.median setup);
  set t "peak_rss_mb" (peak_rss_mb ());
  set t "bench.raw_ops_per_s" (per_s (fun r -> r.host_s));
  set t "bench.reference_ms" (1e3 *. Stat.median (List.map (fun r -> r.ref_s) reps))
