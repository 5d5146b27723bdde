(* rvibench: runs the benchmark workloads and prints every metric as a
   `workload metric value unit` line. See README.md. *)

open Rvibench_lib

let usage =
  "usage: rvibench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
  \                [--trace-out FILE] [--out FILE]\n\
  \       rvibench compare A B\n\
  \       rvibench describe\n"

let line workload (x : Defs.metric) v =
  Printf.sprintf "%s %s %.10g %s" workload x.Defs.name v x.Defs.unit_

let append_lines path lines =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let result_json (m : Measure.t) metrics ~correct =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct m.Measure.attempted m.Measure.failed
    (String.concat ", "
       (List.map
          (fun (x : Defs.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.Defs.name
              (Measure.get m x.Defs.name) x.Defs.unit_)
          metrics))

(* One workload in this process. The last line of stdout is the JSON
   result: end-to-end metrics untraced, per-layer metrics traced. *)
let run_workload (w : Defs.workload) ~seed ~seconds ~traced ~trace_out ~out =
  let m = Measure.create () in
  w.Defs.w_run ~seed ~seconds ~traced m;
  let shown = Defs.end_to_end @ Defs.results @ if traced then Defs.layers else [] in
  let lines = List.map (fun x -> line w.Defs.w_name x (Measure.get m x.Defs.name)) shown in
  List.iter print_endline lines;
  Option.iter (fun path -> append_lines path lines) out;
  Option.iter
    (fun path -> Span.write_chrome ~process:("rvibench " ^ w.Defs.w_name) path)
    trace_out;
  let failures = List.rev m.Measure.failures in
  List.iter
    (fun f -> Printf.eprintf "rvibench %s: check failed: %s\n" w.Defs.w_name f)
    failures;
  let correct = failures = [] in
  print_endline
    (result_json m (if traced then Defs.per_layer else Defs.end_to_end) ~correct);
  if correct then 0 else 1

(* Every workload, each traced, in its own child process one after
   another, so peak RSS and heap size are the workload's own. *)
let run_all ~seed ~seconds ~trace_out ~out =
  List.fold_left
    (fun status (w : Defs.workload) ->
      let trace_args =
        match trace_out with
        | Some path ->
          [ "--trace-out"; Filename.remove_extension path ^ "." ^ w.Defs.w_name ^ ".json" ]
        | None -> []
      in
      let args =
        [ Sys.executable_name; "--workload"; w.Defs.w_name; "--seed"; string_of_int seed;
          "--seconds"; string_of_int seconds; "--trace"; "1" ]
        @ trace_args
      in
      let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
      let rec forward acc =
        match In_channel.input_line ic with
        | Some l when String.length l > 0 && l.[0] = '{' -> forward acc
        | Some l ->
          print_endline l;
          forward (l :: acc)
        | None -> List.rev acc
      in
      let lines = forward [] in
      Option.iter (fun path -> append_lines path lines) out;
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> status
      | _ ->
        Printf.eprintf "rvibench: workload %s failed\n%!" w.Defs.w_name;
        1)
    0 Defs.workloads

let main () =
  let workload = ref None and seed = ref 42 and seconds = ref Defs.run_seconds in
  let traced = ref false and trace_out = ref None and out = ref None in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME  run one workload in this process (default: all, one child each)" );
      ("--seed", Arg.Set_int seed, "N  workload seed (default 42; 2004 is held out)");
      ("--seconds", Arg.Set_int seconds, "S  timed host seconds per workload");
      ( "--trace",
        Arg.Int
          (function
            | 0 -> traced := false
            | 1 -> traced := true
            | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  add the traced rep and report per-layer metrics" );
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE  Chrome-trace JSON of the spans");
      ("--out", Arg.String (fun s -> out := Some s), "FILE  append the metric lines (input of compare)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 then raise (Arg.Bad "--seconds must be at least 1");
  match !workload with
  | None -> run_all ~seed:!seed ~seconds:!seconds ~trace_out:!trace_out ~out:!out
  | Some name -> (
    match Defs.find_workload name with
    | Some w ->
      run_workload w ~seed:!seed ~seconds:!seconds ~traced:!traced ~trace_out:!trace_out
        ~out:!out
    | None ->
      Printf.eprintf "rvibench: unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (w : Defs.workload) -> w.Defs.w_name) Defs.workloads));
      2)

let () =
  match Array.to_list Sys.argv with
  | [ _; "describe" ] -> print_string (Defs.describe ())
  | [ _; "compare"; a; b ] -> exit (Compare.main a b)
  | _ -> (
    match main () with
    | code -> exit code
    | exception Arg.Bad msg ->
      prerr_endline msg;
      exit 2)
