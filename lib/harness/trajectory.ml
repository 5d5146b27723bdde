let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim line)
    | _ -> None
  with _ -> None

let git_commit () =
  match command_line "git rev-parse --short HEAD 2>/dev/null" with
  | None | Some "" -> "unknown"
  | Some hash -> (
    (* a point measured on uncommitted sources must not impersonate the
       commit it sits on *)
    match command_line "git status --porcelain 2>/dev/null" with
    | Some "" -> hash
    | Some _ -> hash ^ "-dirty"
    | None -> hash)

let host_cores () =
  match Option.bind (command_line "nproc 2>/dev/null") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* The files are machine-written (by this module), so appending splices
   the new entry in front of the array's closing bracket rather than
   pulling in a JSON parser the toolchain doesn't ship. *)
let append ~path entry =
  let fresh = "[\n" ^ entry ^ "\n]\n" in
  let content =
    match read_file path with
    | None -> fresh
    | Some old -> (
      match String.rindex_opt old ']' with
      | None -> fresh
      | Some i ->
        let body = String.trim (String.sub old 0 i) in
        if body = "[" then fresh else body ^ ",\n" ^ entry ^ "\n]\n")
  in
  write_file path content;
  path

let indices_rev s key =
  let kl = String.length key and n = String.length s in
  let acc = ref [] in
  for i = 0 to n - kl do
    if String.sub s i kl = key then acc := i :: !acc
  done;
  !acc

let float_field_at s pos key =
  let kl = String.length key and n = String.length s in
  let found = ref (-1) and i = ref pos in
  while !found < 0 && !i <= n - kl do
    if String.sub s !i kl = key then found := !i;
    incr i
  done;
  if !found < 0 then None
  else begin
    let j = !found + kl in
    let stop = ref j in
    while
      !stop < n && s.[!stop] <> ',' && s.[!stop] <> '\n' && s.[!stop] <> '}'
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub s j (!stop - j)))
  end
