(* Tests for the sharded parallel executor (rvi_par) and the determinism
   contract of the parallel fault-campaign runner built on top of it.

   The load-bearing property here is the one the CLI's [--jobs] flag
   advertises: for any workload, seed, and domain count, a sharded
   campaign produces exactly the results of the serial one -- same
   per-run classification vector, same merged statistics, same trace
   payload. Domains only change wall-clock, never output. *)

module Par = Rvi_par.Par
module Faults = Rvi_harness.Faults
module Trace = Rvi_obs.Trace

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Par core} *)

let domains_gen = QCheck.Gen.oneofl [ 1; 2; 4; 8 ]
let domains_arb = QCheck.make ~print:string_of_int domains_gen

let prop_map_equals_list_map =
  QCheck.Test.make ~name:"Par.map agrees with List.map for any domains/chunk"
    ~count:150
    QCheck.(triple (list small_int) domains_arb (int_range 1 5))
    (fun (xs, domains, chunk) ->
      let f x = (x * x) - (3 * x) + 7 in
      Par.map ~domains ~chunk f xs = List.map f xs)

let prop_mapi_equals_list_mapi =
  QCheck.Test.make ~name:"Par.mapi agrees with List.mapi" ~count:150
    QCheck.(pair (list small_int) domains_arb)
    (fun (xs, domains) ->
      let f i x = (i * 31) + x in
      Par.mapi ~domains f xs = List.mapi f xs)

let prop_map_default_chunk =
  QCheck.Test.make ~name:"Par.map default chunk preserves order" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 0 200) small_int) domains_arb)
    (fun (xs, domains) -> Par.map ~domains (fun x -> x + 1) xs
                          = List.map (fun x -> x + 1) xs)

let test_shard_of_index () =
  checki "chunk 4, index 0" 0 (Par.shard_of_index ~chunk:4 0);
  checki "chunk 4, index 3" 0 (Par.shard_of_index ~chunk:4 3);
  checki "chunk 4, index 4" 1 (Par.shard_of_index ~chunk:4 4);
  checki "chunk 1, index 9" 9 (Par.shard_of_index ~chunk:1 9);
  Alcotest.check_raises "chunk 0 rejected"
    (Invalid_argument "Par.shard_of_index: non-positive chunk") (fun () ->
      ignore (Par.shard_of_index ~chunk:0 1))

exception Boom of int

let test_exception_lowest_index () =
  (* Both the serial and the parallel path must surface the exception of
     the lowest failing index, so a crash report does not depend on the
     domain count. *)
  let f i = if i mod 3 = 2 then raise (Boom i) else i in
  List.iter
    (fun domains ->
      match Par.map ~domains ~chunk:2 f (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        checki (Printf.sprintf "lowest failing index at domains=%d" domains) 2 i)
    [ 1; 2; 4 ]

let test_recommended_domains () =
  checkb "recommended_domains >= 1" true (Par.recommended_domains () >= 1)

(* {1 Campaign determinism} *)

let classification results =
  List.map (fun r -> (r.Faults.index, r.Faults.seed, r.Faults.outcome)) results

(* Campaign runs cost tens of milliseconds each, so the property uses
   few runs and few qcheck cases; breadth comes from the seed, runs and
   chunk dimensions all varying. Every campaign has at least four runs,
   so each workload runs, and its recipe, forced once before sharding,
   is read by the domains its runs land on. *)
let prop_campaign_jobs_invariant =
  QCheck.Test.make
    ~name:"Faults.campaign classification and summary independent of domains"
    ~count:6
    QCheck.(triple (int_range 4 8) (int_bound 10_000) (int_range 1 3))
    (fun (runs, seed, chunk) ->
      let serial = Faults.campaign ~runs ~seed () in
      List.for_all
        (fun jobs ->
          let par = Faults.campaign ~jobs ~chunk ~runs ~seed () in
          classification par = classification serial
          && Faults.summarize par = Faults.summarize serial)
        [ 2; 4; 8 ])

(* Each domain extends its own table of the FIR signal's seed-free tone,
   so signals drawn on pool domains, in an order that makes a fresh table
   grow in steps, equal the serial ones. *)
let test_fir_signal_domains () =
  let jobs =
    List.init 12 (fun i -> (i, 2 * (64 + (((i * 7) mod 12) * 300))))
  in
  let draw (seed, bytes) = Rvi_harness.Workload.fir_signal ~seed ~bytes in
  let serial = List.map draw jobs in
  let par = Par.Pool.map (Par.Pool.shared ~domains:2) ~chunk:1 draw jobs in
  checkb "fir signals on two domains equal the serial ones" true
    (List.for_all2 Bytes.equal serial par)

let test_campaign_csv_identical () =
  let runs = 8 and seed = 2004 in
  let serial = Faults.campaign ~runs ~seed () in
  List.iter
    (fun jobs ->
      let par = Faults.campaign ~jobs ~runs ~seed () in
      check Alcotest.string
        (Printf.sprintf "csv at jobs=%d equals serial" jobs)
        (Faults.csv serial) (Faults.csv par))
    [ 2; 4; 8 ]

(* The seed-42 200-run campaign CSVs are fixed points of the project:
   any change to the simulated platform, the injector or the campaign
   driver that moves one run shows up as a different digest, whatever
   the domain count. *)
let test_campaign_csv_md5_pinned () =
  List.iter
    (fun (translation, pinned) ->
      List.iter
        (fun jobs ->
          let results =
            Faults.campaign ~translation ~jobs ~runs:200 ~seed:42 ()
          in
          check Alcotest.string
            (Printf.sprintf "%s campaign CSV md5 at jobs=%d"
               (Rvi_core.Translation_mode.name translation)
               jobs)
            pinned
            (Digest.to_hex (Digest.string (Faults.csv results))))
        [ 1; 2 ])
    [
      (Rvi_core.Translation_mode.Paper_objects,
       "1fcb48985627bfc27b5473af8b7a22e6");
      (Rvi_core.Translation_mode.Iommu_sva, "c49f7596c70e99e134c040e29d70b0a8");
    ]

let test_campaign_trace_merge () =
  (* The merged parallel trace must carry the same event payloads in the
     same order as the serial trace; only the shard stamps may differ
     (serial records everything as shard 0). *)
  let runs = 6 and seed = 11 in
  let payload t =
    List.map (fun e -> (e.Trace.at, e.Trace.dur, e.Trace.kind)) (Trace.events t)
  in
  let serial_t = Trace.create () in
  ignore (Faults.campaign ~trace:serial_t ~runs ~seed ());
  let par_t = Trace.create () in
  ignore (Faults.campaign ~trace:par_t ~jobs:3 ~chunk:1 ~runs ~seed ());
  checkb "trace payloads identical" true (payload serial_t = payload par_t);
  let shards =
    List.sort_uniq compare
      (List.map (fun e -> e.Trace.shard) (Trace.events par_t))
  in
  checkb "parallel trace spans several shards" true (List.length shards > 1);
  let seqs = List.map (fun e -> e.Trace.seq) (Trace.events par_t) in
  checkb "merged seq restamped contiguously" true
    (seqs = List.init (List.length seqs) Fun.id)

let test_campaign_progress_order () =
  let order = ref [] in
  let progress r = order := r.Faults.index :: !order in
  ignore (Faults.campaign ~progress ~jobs:4 ~runs:7 ~seed:3 ());
  check
    Alcotest.(list int)
    "progress fires in run order" [ 0; 1; 2; 3; 4; 5; 6 ] (List.rev !order)

(* {1 Pool edge cases}

   The persistent-pool path has its own scheduling loop, so the
   boundary conditions (nothing to do, one chunk covering everything,
   an exception in the very last chunk) and cross-job reuse each get a
   dedicated check rather than relying on the random properties to
   stumble over them. *)

let test_pool_edge_cases () =
  let pool = Par.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      checkb "empty list" true (Par.Pool.map pool (fun x -> x * 2) [] = []);
      (* chunk larger than the list: a single chunk runs everything *)
      checkb "chunk > n" true
        (Par.Pool.map pool ~chunk:100 (fun x -> x + 1) [ 1; 2; 3 ]
        = [ 2; 3; 4 ]);
      (* an exception in the last chunk must surface after the join and
         leave the pool usable for the next job *)
      (match
         Par.Pool.map pool ~chunk:2
           (fun x -> if x = 9 then raise (Boom x) else x)
           [ 1; 2; 3; 4; 9 ]
       with
      | (_ : int list) -> Alcotest.fail "expected Boom"
      | exception Boom 9 -> ());
      checkb "pool alive after exception" true
        (Par.Pool.map pool (fun x -> x - 1) [ 5; 6 ] = [ 4; 5 ]))

let test_pool_reused_across_campaigns () =
  (* Two campaigns back to back through the same shared pool must both
     match their serial classification — the pool must not leak state
     (chunk counters, pending exceptions) from one job into the next. *)
  let classify runs seed jobs =
    List.map
      (fun r -> Faults.outcome_name r.Faults.outcome)
      (Faults.campaign ~runs ~seed ~jobs ())
  in
  let serial_a = classify 8 7 1 and serial_b = classify 8 1234 1 in
  (* jobs:2 routes through Par.Pool.shared, reused by the second call *)
  checkb "first campaign" true (classify 8 7 2 = serial_a);
  checkb "second campaign same pool" true (classify 8 1234 2 = serial_b)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_equals_list_map;
    QCheck_alcotest.to_alcotest prop_mapi_equals_list_mapi;
    QCheck_alcotest.to_alcotest prop_map_default_chunk;
    Alcotest.test_case "par/shard-of-index" `Quick test_shard_of_index;
    Alcotest.test_case "par/exception-lowest-index" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "par/recommended-domains" `Quick
      test_recommended_domains;
    QCheck_alcotest.to_alcotest prop_campaign_jobs_invariant;
    Alcotest.test_case "par/fir-signal-domains" `Quick test_fir_signal_domains;
    Alcotest.test_case "par/campaign-csv-identical" `Quick
      test_campaign_csv_identical;
    Alcotest.test_case "par/campaign-csv-md5-pinned" `Quick
      test_campaign_csv_md5_pinned;
    Alcotest.test_case "par/campaign-trace-merge" `Quick
      test_campaign_trace_merge;
    Alcotest.test_case "par/campaign-progress-order" `Quick
      test_campaign_progress_order;
    Alcotest.test_case "par/pool-edge-cases" `Quick test_pool_edge_cases;
    Alcotest.test_case "par/pool-reused-across-campaigns" `Quick
      test_pool_reused_across_campaigns;
  ]
