(* Host-time spans recorded by the benchmark around calls into the
   program's layers. Kept in memory and written once, at exit, as a
   Chrome-trace JSON that Perfetto opens. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type t = {
  name : string;
  tid : int;
  start_ns : int;
  dur_ns : int;
  args : (string * string) list;
}

let recorded : t list ref = ref []

let record ?(tid = 1) ?(args = []) name ~start_ns ~stop_ns =
  recorded := { name; tid; start_ns; dur_ns = stop_ns - start_ns; args } :: !recorded

(* Runs [f] inside a span; returns its result and the span's length in
   seconds. *)
let timed ?tid ?args name f =
  let start_ns = now_ns () in
  let v = f () in
  let stop_ns = now_ns () in
  record ?tid ?args name ~start_ns ~stop_ns;
  (v, float_of_int (stop_ns - start_ns) *. 1e-9)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_chrome ~process path =
  let spans = List.rev !recorded in
  let origin = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
    (json_escape process);
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        s.tid (json_escape s.name)
        (float_of_int (s.start_ns - origin) /. 1e3)
        (float_of_int s.dur_ns /. 1e3)
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
              s.args)))
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
