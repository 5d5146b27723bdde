open Rvibench_lib

let close = Alcotest.float 1e-9

let test_tail_rule () =
  let check n p = Alcotest.(check int) (Printf.sprintf "tail at %d samples" n) p (Stat.tail_percentile n) in
  check 200 95;
  check 10_000 99;
  check 20_000 99;
  check 199 90;
  check 100 90;
  check 19 50

let test_percentile () =
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..200" 100.0 (Stat.percentile xs 50);
  Alcotest.check close "p95 of 1..200 leaves 10 beyond" 190.0 (Stat.percentile xs 95);
  Alcotest.check close "p99 of one sample" 7.0 (Stat.percentile [ 7.0 ] 99)

(* Expected values are Python's statistics.median / quantiles(n=4). *)
let test_median_quartiles () =
  Alcotest.check close "odd median" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even median" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let q xs = Stat.quartiles (List.map float_of_int xs) in
  let check name (a, b, c) (x, y, z) =
    Alcotest.check close (name ^ " q1") a x;
    Alcotest.check close (name ^ " q2") b y;
    Alcotest.check close (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q (List.init 10 succ));
  check "1..4" (1.25, 2.5, 3.75) (q [ 4; 3; 2; 1 ]);
  check "two values" (0.75, 1.5, 2.25) (q [ 1; 2 ]);
  check "one value" (5.0, 5.0, 5.0) (q [ 5 ])

let metric name = Option.get (Defs.find_metric name)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let test_compare_verdicts () =
  let ops = metric "ops_per_s" and setup = metric "setup_s" in
  let judge name m a b want = Alcotest.check verdict name want (Compare.judge m a b) in
  let base = [ 100.0; 101.0; 102.0 ] in
  judge "within the bound" ops base [ 99.0; 100.0; 101.0 ] Compare.Ok;
  judge "throughput fell past the bound" ops base [ 70.0; 71.0; 72.0 ] Compare.Worse;
  judge "throughput rose past the bound" ops base [ 140.0; 141.0; 142.0 ] Compare.Better;
  judge "set-up grew past the bound" setup [ 0.010; 0.010; 0.011 ] [ 0.020; 0.021; 0.020 ]
    Compare.Worse;
  judge "spread wider than the bound" ops [ 50.0; 100.0; 150.0 ] [ 99.0; 100.0; 101.0 ]
    Compare.Unresolved;
  judge "wide, but every candidate run beats every baseline run" ops
    [ 50.0; 100.0; 150.0 ] [ 200.0; 210.0; 220.0 ] Compare.Better;
  judge "exact metric unchanged" (metric "sim_p50_ms") [ 2.0; 1.0 ] [ 1.0; 2.0 ] Compare.Ok;
  judge "exact metric changed" (metric "sim_p50_ms") [ 1.0; 2.0 ] [ 1.0; 2.5 ] Compare.Worse;
  judge "fail_frac fell" (metric "fail_frac") [ 0.01 ] [ 0.0 ] Compare.Better;
  judge "fail_frac rose" (metric "fail_frac") [ 0.0 ] [ 0.005 ] Compare.Worse

let test_compare_rows () =
  let tbl entries =
    let t = Hashtbl.create 8 in
    List.iter (fun (k, v) -> Hashtbl.replace t k v) entries;
    t
  in
  let a = tbl [ (("serve-wfq", "ops_per_s"), [ 100.0 ]); (("serve-wfq", "jain"), [ 0.5 ]) ] in
  let b = tbl [ (("serve-wfq", "ops_per_s"), [ 100.0 ]) ] in
  let rows = Compare.rows a b in
  Alcotest.(check (list string)) "a metric missing on one side is worse"
    [ "ops_per_s:ok"; "jain:worse" ]
    (List.map
       (fun r -> r.Compare.metric.Defs.name ^ ":" ^ Compare.verdict_name r.Compare.verdict)
       rows);
  Alcotest.(check (option (triple string string (float 0.0))))
    "saved line" (Some ("serve-wfq", "ops_per_s", 5123.5))
    (Compare.parse_line "serve-wfq ops_per_s 5123.5 1/s")

(* The limits BENCHMARK.json must respect, checked on the table it is
   generated from. *)
let test_table_limits () =
  let name_ok s =
    String.length s <= 64
    && String.length s > 0
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         s
  in
  let unit_ok s =
    String.length s <= 16
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
           | _ -> false)
         s
  in
  let names =
    List.map (fun (w : Defs.workload) -> w.Defs.w_name) Defs.workloads
    @ List.map (fun (x : Defs.metric) -> x.Defs.name) Defs.all_metrics
  in
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (name_ok n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (w : Defs.workload) ->
      Alcotest.(check bool) ("why of " ^ w.Defs.w_name) true (String.length w.Defs.w_why <= 200))
    Defs.workloads;
  List.iter
    (fun (x : Defs.metric) -> Alcotest.(check bool) ("unit of " ^ x.Defs.name) true (unit_ok x.Defs.unit_))
    Defs.all_metrics;
  List.iter
    (fun (x : Defs.metric) ->
      match x.Defs.kind with
      | Defs.Bound b -> Alcotest.(check bool) ("bound of " ^ x.Defs.name) true (b > 0.0 && b <= 0.25)
      | Defs.Exact | Defs.No_rise | Defs.Layer -> Alcotest.fail (x.Defs.name ^ " has no bound"))
    Defs.end_to_end;
  Alcotest.(check bool) "setup_s is end to end" true
    (List.exists (fun (x : Defs.metric) -> x.Defs.name = "setup_s") Defs.end_to_end)

let () =
  Alcotest.run "rvibench"
    [
      ( "stat",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_compare_verdicts;
          Alcotest.test_case "rows and saved lines" `Quick test_compare_rows;
        ] );
      ("defs", [ Alcotest.test_case "BENCHMARK.json limits" `Quick test_table_limits ]);
    ]
