(* [rvibench compare A B]: A is the baseline, B the candidate. Each file
   holds the `workload metric value unit` lines of one or more
   invocations (see [--out]), so every (workload, metric) pair has one
   value per invocation. *)

type verdict = Ok | Better | Worse | Unresolved

let verdict_name = function
  | Ok -> "ok"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge (m : Defs.metric) a b =
  let ma = Stat.median a and mb = Stat.median b in
  let b_better x y = match m.Defs.better with Defs.Higher -> x > y | Defs.Lower -> x < y in
  match m.Defs.kind with
  | Defs.Bound bound ->
    (* relative change in the metric's worse direction *)
    let worse_by =
      Stat.ratio (match m.Defs.better with Defs.Lower -> mb -. ma | Defs.Higher -> ma -. mb) ma
    in
    let all_better = List.for_all (fun y -> List.for_all (fun x -> b_better y x) a) b in
    if Float.max (Stat.spread a) (Stat.spread b) > bound then
      if all_better then Better else Unresolved
    else if worse_by > bound then Worse
    else if worse_by < -.bound then Better
    else Ok
  | Defs.No_rise ->
    if List.exists (fun y -> List.exists (fun x -> y > x) a) b then Worse
    else if mb < ma then Better
    else Ok
  | Defs.Exact ->
    if List.sort Float.compare a = List.sort Float.compare b then Ok else Worse
  | Defs.Layer -> Ok

let parse_line line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | [ workload; metric; value; _unit ] ->
    Option.map (fun v -> (workload, metric, v)) (float_of_string_opt value)
  | _ -> None

(* (workload, metric) -> values in file order *)
let load path =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match parse_line line with
         | Some (w, name, v) ->
           let prev = Option.value (Hashtbl.find_opt tbl (w, name)) ~default:[] in
           Hashtbl.replace tbl (w, name) (prev @ [ v ])
         | None -> ());
  tbl

type row = {
  workload : string;
  metric : Defs.metric;
  a : float list;
  b : float list;
  verdict : verdict;
}

(* Every end-to-end and simulated-result metric present on either side,
   workload by workload. A metric measured on one side only is [Worse]. *)
let rows a b =
  List.concat_map
    (fun (w : Defs.workload) ->
      List.filter_map
        (fun (m : Defs.metric) ->
          let get t = Option.value (Hashtbl.find_opt t (w.Defs.w_name, m.Defs.name)) ~default:[] in
          match (get a, get b) with
          | [], [] -> None
          | xs, ys ->
            let verdict = if xs = [] || ys = [] then Worse else judge m xs ys in
            Some { workload = w.Defs.w_name; metric = m; a = xs; b = ys; verdict })
        (List.filter (fun (m : Defs.metric) -> m.Defs.kind <> Defs.Layer) Defs.all_metrics))
    Defs.workloads

let print_row r =
  let side xs =
    let q1, med, q3 = Stat.quartiles xs in
    Printf.sprintf "%12.6g [%.6g, %.6g] n=%d" med q1 q3 (List.length xs)
  in
  Printf.printf "%-15s %-16s %-8s A %-40s B %-40s %s\n" r.workload r.metric.Defs.name
    r.metric.Defs.unit_ (side r.a) (side r.b) (verdict_name r.verdict)

let main path_a path_b =
  let rows = rows (load path_a) (load path_b) in
  List.iter print_row rows;
  if rows = [] then (prerr_endline "rvibench compare: no metrics in common"; 1)
  else if List.exists (fun r -> r.verdict = Worse) rows then 1
  else 0
