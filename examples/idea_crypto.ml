(* idea_crypto: the paper's cryptographic workload as an application.

   Encrypts 24 KB through the 3-stage pipelined IDEA coprocessor, then
   decrypts the ciphertext through the same coprocessor (the decrypt flag
   in the parameter page selects the inverted key schedule) and checks the
   round trip. 24 KB + 24 KB cannot fit the 16 KB dual-port memory, which
   is precisely where the normal coprocessor gives up and the VIM does not.

   Run with:  dune exec examples/idea_crypto.exe *)

let () =
  let cfg = Rvi_harness.Config.default () in
  let key = Rvi_harness.Workload.idea_key ~seed:99 in
  let plaintext = Rvi_harness.Workload.idea_plaintext ~seed:99 ~bytes:(24 * 1024) in
  Printf.printf "IDEA over %d KB (key %s)\n"
    (Bytes.length plaintext / 1024)
    (String.concat ""
       (Array.to_list (Array.map (Printf.sprintf "%04x") key)));

  let run ~decrypt impl data =
    Rvi_harness.Runner.run cfg impl (Rvi_harness.Jobs.idea_ecb ~decrypt ~key data)
  in
  (* The normal coprocessor cannot even attempt this size. *)
  let normal = run ~decrypt:false Rvi_harness.Runner.Normal plaintext in
  (match normal.Rvi_harness.Report.outcome with
  | Rvi_harness.Report.Exceeds_memory ->
    print_endline "normal coprocessor: exceeds available memory (as in Figure 9)"
  | _ -> print_endline "normal coprocessor: unexpectedly ran?");

  (* Encrypt through the VIM-based coprocessor. *)
  let enc = run ~decrypt:false Rvi_harness.Runner.Vim plaintext in
  let ciphertext = Rvi_coproc.Idea_ref.ecb ~key ~decrypt:false plaintext in
  Printf.printf "encrypt: %.3f ms, verified %b\n"
    (Rvi_sim.Simtime.to_ms enc.Rvi_harness.Report.total)
    enc.Rvi_harness.Report.verified;

  (* Decrypt the ciphertext through the same coprocessor. *)
  let dec = run ~decrypt:true Rvi_harness.Runner.Vim ciphertext in
  Printf.printf "decrypt: %.3f ms, verified %b\n"
    (Rvi_sim.Simtime.to_ms dec.Rvi_harness.Report.total)
    dec.Rvi_harness.Report.verified;

  (* Round trip at the reference level too. *)
  let recovered = Rvi_coproc.Idea_ref.ecb ~key ~decrypt:true ciphertext in
  Printf.printf "round trip: %s\n"
    (if Bytes.equal recovered plaintext then "plaintext recovered" else "MISMATCH");

  let sw = run ~decrypt:false Rvi_harness.Runner.Sw plaintext in
  (match Rvi_harness.Report.speedup ~baseline:sw enc with
  | Some s -> Printf.printf "speedup over software: %.1fx\n" s
  | None -> ());
  if
    not
      (Rvi_harness.Report.ok enc
      && Rvi_harness.Report.ok dec
      && Bytes.equal recovered plaintext)
  then exit 1
