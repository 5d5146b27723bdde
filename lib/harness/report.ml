module Simtime = Rvi_sim.Simtime

type outcome =
  | Measured
  | Exceeds_memory
  | Degraded of string
  | Failed of string

type row = {
  app : string;
  version : string;
  input_bytes : int;
  outcome : outcome;
  total : Simtime.t;
  hw : Simtime.t;
  sw_dp : Simtime.t;
  sw_imu : Simtime.t;
  sw_app : Simtime.t;
  sw_os : Simtime.t;
  faults : int;
  evictions : int;
  writebacks : int;
  tlb_refill_faults : int;
  prefetched : int;
  accesses : int;
  fault_p95_us : float;
  fault_p99_us : float;
  retries : int;
  verified : bool;
}

let empty ~app ~version ~input_bytes =
  {
    app;
    version;
    input_bytes;
    outcome = Measured;
    total = Simtime.zero;
    hw = Simtime.zero;
    sw_dp = Simtime.zero;
    sw_imu = Simtime.zero;
    sw_app = Simtime.zero;
    sw_os = Simtime.zero;
    faults = 0;
    evictions = 0;
    writebacks = 0;
    tlb_refill_faults = 0;
    prefetched = 0;
    accesses = 0;
    fault_p95_us = 0.0;
    fault_p99_us = 0.0;
    retries = 0;
    verified = false;
  }

let ok r = r.outcome = Measured && r.verified

let speedup ~baseline r =
  match (baseline.outcome, r.outcome) with
  | Measured, Measured ->
    let b = Simtime.to_ms baseline.total and x = Simtime.to_ms r.total in
    if x > 0.0 then Some (b /. x) else None
  | _ -> None

let size_label bytes =
  (* Non-KiB-aligned sizes used to fall through to bytes ("1536B"); render
     them as fractional KB instead, trimming a trailing ".0". *)
  if bytes >= 1024 then
    if bytes mod 1024 = 0 then Printf.sprintf "%dKB" (bytes / 1024)
    else
      let kb = float_of_int bytes /. 1024.0 in
      let s = Printf.sprintf "%.2f" kb in
      let s =
        let n = String.length s in
        if String.ends_with ~suffix:"0" s then String.sub s 0 (n - 1) else s
      in
      s ^ "KB"
  else Printf.sprintf "%dB" bytes

let ms t = Simtime.to_ms t

let print_table ?title ppf rows =
  (match title with Some s -> Format.fprintf ppf "%s@." s | None -> ());
  Format.fprintf ppf
    "%-14s %-8s %-7s %10s %9s %9s %9s %7s %8s %8s %6s %6s %5s  %s@." "app"
    "version" "input" "total(ms)" "HW(ms)" "SWdp(ms)" "SWimu(ms)" "faults"
    "p95(us)" "p99(us)" "evict" "wback" "acc/k" "ok";
  List.iter
    (fun r ->
      match r.outcome with
      | Measured ->
        Format.fprintf ppf
          "%-14s %-8s %-7s %10.3f %9.3f %9.3f %9.3f %7d %8.2f %8.2f %6d %6d %5d  %s@."
          r.app r.version (size_label r.input_bytes) (ms r.total) (ms r.hw)
          (ms r.sw_dp) (ms r.sw_imu) r.faults r.fault_p95_us r.fault_p99_us
          r.evictions r.writebacks
          (r.accesses / 1000)
          (if r.verified then "yes" else "NO")
      | Exceeds_memory ->
        Format.fprintf ppf "%-14s %-8s %-7s %10s  exceeds available memory@."
          r.app r.version (size_label r.input_bytes) "-"
      | Degraded reason ->
        Format.fprintf ppf
          "%-14s %-8s %-7s %10s  degraded to software (%s): %s@." r.app
          r.version (size_label r.input_bytes) "-" reason
          (if r.verified then "output ok" else "OUTPUT BAD")
      | Failed msg ->
        Format.fprintf ppf "%-14s %-8s %-7s %10s  FAILED: %s@." r.app r.version
          (size_label r.input_bytes) "-" msg)
    rows

(* Stacked bar: '#' hardware, '=' SW(DP), '%' SW(IMU), '.' app software,
   '-' residual OS. *)
let bar_chart ?(width = 52) ~title ~baseline_version ppf rows =
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "  [#] HW   [=] SW(DP)   [%%] SW(IMU)   [.] SW(app)   [-] SW(OS)@.";
  let max_ms =
    List.fold_left
      (fun acc r ->
        match r.outcome with Measured -> Float.max acc (ms r.total) | _ -> acc)
      0.0 rows
  in
  let scale v = if max_ms <= 0.0 then 0 else int_of_float (v /. max_ms *. float_of_int width) in
  let baseline_for r =
    List.find_opt
      (fun b ->
        b.version = baseline_version
        && b.input_bytes = r.input_bytes
        && b.app = r.app)
      rows
  in
  List.iter
    (fun r ->
      let label = Printf.sprintf "%-5s %-7s" (size_label r.input_bytes) r.version in
      match r.outcome with
      | Measured ->
        let segments =
          [
            ('.', ms r.sw_app);
            ('#', ms r.hw);
            ('=', ms r.sw_dp);
            ('%', ms r.sw_imu);
            ('-', ms r.sw_os);
          ]
        in
        let bar = Buffer.create width in
        List.iter
          (fun (c, v) -> Buffer.add_string bar (String.make (scale v) c))
          segments;
        let annot =
          if r.version = baseline_version then ""
          else
            match baseline_for r with
            | Some b -> (
              match speedup ~baseline:b r with
              | Some s -> Printf.sprintf "  %.1fx" s
              | None -> "")
            | None -> ""
        in
        Format.fprintf ppf "  %s |%s| %.2fms%s@." label (Buffer.contents bar)
          (ms r.total) annot
      | Exceeds_memory ->
        Format.fprintf ppf "  %s |%s@." label "exceeds available memory"
      | Degraded reason ->
        Format.fprintf ppf "  %s |degraded to software: %s@." label reason
      | Failed msg -> Format.fprintf ppf "  %s |FAILED: %s@." label msg)
    rows

let csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "app,version,input_bytes,outcome,total_ms,hw_ms,sw_dp_ms,sw_imu_ms,sw_app_ms,sw_os_ms,faults,fault_p95_us,fault_p99_us,evictions,writebacks,tlb_refill_faults,prefetched,accesses,retries,verified\n";
  List.iter
    (fun r ->
      let outcome =
        match r.outcome with
        | Measured -> "measured"
        | Exceeds_memory -> "exceeds_memory"
        | Degraded reason -> Printf.sprintf "degraded(%s)" reason
        | Failed m -> Printf.sprintf "failed(%s)" m
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%s,%d,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%b\n"
           r.app r.version r.input_bytes outcome (ms r.total) (ms r.hw)
           (ms r.sw_dp) (ms r.sw_imu) (ms r.sw_app) (ms r.sw_os) r.faults
           r.fault_p95_us r.fault_p99_us r.evictions r.writebacks
           r.tlb_refill_faults r.prefetched r.accesses r.retries r.verified))
    rows;
  Buffer.contents buf

(* Hand-rolled JSON (no external dependency): only the shapes we emit. *)
let json_escape = Rvi_obs.Export.json_escape

let json rows =
  let row_json r =
    let outcome =
      match r.outcome with
      | Measured -> "measured"
      | Exceeds_memory -> "exceeds_memory"
      | Degraded reason -> "degraded: " ^ reason
      | Failed m -> "failed: " ^ m
    in
    Printf.sprintf
      {|{"app":"%s","version":"%s","input_bytes":%d,"outcome":"%s","total_ms":%.6f,"hw_ms":%.6f,"sw_dp_ms":%.6f,"sw_imu_ms":%.6f,"sw_app_ms":%.6f,"sw_os_ms":%.6f,"faults":%d,"fault_p95_us":%.3f,"fault_p99_us":%.3f,"evictions":%d,"writebacks":%d,"tlb_refill_faults":%d,"prefetched":%d,"accesses":%d,"retries":%d,"verified":%b}|}
      (json_escape r.app) (json_escape r.version) r.input_bytes
      (json_escape outcome) (ms r.total) (ms r.hw) (ms r.sw_dp) (ms r.sw_imu)
      (ms r.sw_app) (ms r.sw_os) r.faults r.fault_p95_us r.fault_p99_us
      r.evictions r.writebacks r.tlb_refill_faults r.prefetched r.accesses
      r.retries r.verified
  in
  "[\n  " ^ String.concat ",\n  " (List.map row_json rows) ^ "\n]\n"
