module Cp_port = Rvi_core.Cp_port

let obj_in = 0
let obj_out = 1
let stages = 3
let stage_cycles = 10
let key_setup_cycles = 64

(* Eight rounds of four 16-bit multiplications mod 2^16+1 in software,
   each tens of cycles on the ARM922T; 26 ms / 512 blocks at 133 MHz. *)
let sw_cycles_per_block = 6757

type mode = Ecb_encrypt | Ecb_decrypt | Cbc_encrypt | Cbc_decrypt

let mode_code = function
  | Ecb_encrypt -> 0
  | Ecb_decrypt -> 1
  | Cbc_encrypt -> 2
  | Cbc_decrypt -> 3

let mode_of_code = function
  | 0 -> Some Ecb_encrypt
  | 1 -> Some Ecb_decrypt
  | 2 -> Some Cbc_encrypt
  | 3 -> Some Cbc_decrypt
  | _ -> None

let mode_name = function
  | Ecb_encrypt -> "ecb-encrypt"
  | Ecb_decrypt -> "ecb-decrypt"
  | Cbc_encrypt -> "cbc-encrypt"
  | Cbc_decrypt -> "cbc-decrypt"

let n_params = 14

let params_mode ~n_blocks ~mode ~key ?(iv = [| 0; 0; 0; 0 |]) () =
  let key = Idea_ref.key_of_words key in
  let _ = Idea_ref.iv_of_words iv in
  (n_blocks :: mode_code mode :: Array.to_list key) @ Array.to_list iv

let params ~n_blocks ~decrypt ~key =
  params_mode ~n_blocks
    ~mode:(if decrypt then Ecb_decrypt else Ecb_encrypt)
    ~key ()

(* [Read_param] and [Wait_param] move parameter word [param];
   [Key_setup] has [key_left] cycles to go. *)
type phase = Wait_start | Read_param | Wait_param | Key_setup | Run | Done

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = phase
end)

(* [F_hold_lo] (low word read, waiting for the port) and [F_wait_hi]
   hold the block's low word in [fetch_lo]. *)
type fetch_state = F_idle | F_wait_lo | F_hold_lo | F_wait_hi
type retire_state = R_idle | R_wait_lo | R_wait_hi

type m = {
  port : Mem_port.t;
  fsm : Fsm.t;
  mutable param : int;
  mutable key_left : int;
  raw_params : int array;
  mutable n_blocks : int;
  mutable mode : mode;
  (* the CBC chaining block as its two bus words *)
  mutable chain_lo : int;
  mutable chain_hi : int;
  crypt_out : int array; (* [Idea_ref.crypt_le32_into] result scratch *)
  mutable subkeys : int array;
  (* pipeline: stage [s] holds a block iff [pipe_left.(s) >= 0], the
     cycles it still needs there; its result words are in [pipe_lo]
     and [pipe_hi] *)
  pipe_lo : int array;
  pipe_hi : int array;
  pipe_left : int array;
  mutable out_valid : bool;
  mutable out_lo : int;
  mutable out_hi : int;
  mutable fetch : fetch_state;
  mutable fetch_lo : int;
  mutable fetched : int;
  mutable retire : retire_state;
  mutable retire_hi : int;
  mutable retired : int;
  stats : Rvi_sim.Stats.t;
  c_cycles : Rvi_sim.Stats.counter;
  c_blocks : Rvi_sim.Stats.counter;
}

let setup_keys m =
  m.mode <- Option.value (mode_of_code m.raw_params.(1)) ~default:Ecb_encrypt;
  let key = Array.sub m.raw_params 2 8 in
  let sub = Idea_ref.expand_key key in
  let decrypting =
    match m.mode with
    | Ecb_decrypt | Cbc_decrypt -> true
    | Ecb_encrypt | Cbc_encrypt -> false
  in
  m.subkeys <- (if decrypting then Idea_ref.invert_key sub else sub);
  let w i = m.raw_params.(10 + i) land 0xFFFF in
  m.chain_lo <- Idea_ref.le32_of_pair (w 0) (w 1);
  m.chain_hi <- Idea_ref.le32_of_pair (w 2) (w 3)

let begin_run m =
  m.n_blocks <- m.raw_params.(0);
  Array.fill m.pipe_left 0 stages (-1);
  m.out_valid <- false;
  m.fetch <- F_idle;
  m.fetched <- 0;
  m.retire <- R_idle;
  m.retired <- 0;
  if m.n_blocks = 0 then begin
    Mem_port.finish m.port;
    Fsm.goto m.fsm Done
  end
  else Fsm.goto m.fsm Run

(* One cycle of the retire unit. Returns true if it claimed the port. *)
let step_retire m =
  match m.retire with
  | R_idle ->
    if m.out_valid && not (Mem_port.busy m.port) then begin
      m.out_valid <- false;
      m.retire_hi <- m.out_hi;
      Mem_port.issue m.port ~region:obj_out ~addr:(8 * m.retired) ~wr:true
        ~width:Cp_port.W32 ~data:m.out_lo;
      m.retire <- R_wait_lo;
      true
    end
    else false
  | R_wait_lo ->
    if Mem_port.ready m.port then
      if not (Mem_port.busy m.port) then begin
        Mem_port.issue m.port ~region:obj_out
          ~addr:((8 * m.retired) + 4)
          ~wr:true ~width:Cp_port.W32 ~data:m.retire_hi;
        m.retire <- R_wait_hi;
        true
      end
      else true (* port stolen is impossible: we are the only user now *)
    else true (* still waiting: the port is ours *)
  | R_wait_hi ->
    if Mem_port.ready m.port then begin
      m.retired <- m.retired + 1;
      Rvi_sim.Stats.tick m.c_blocks;
      m.retire <- R_idle;
      false
    end
    else true

let issue_hi m =
  Mem_port.issue m.port ~region:obj_in
    ~addr:((8 * m.fetched) + 4)
    ~wr:false ~width:Cp_port.W32 ~data:0;
  m.fetch <- F_wait_hi

(* Whether an idle fetch unit may start the next block (given a free
   port). CBC encryption is a recurrence: the next block cannot enter the
   pipeline until the previous one has left it. *)
let fetch_can_start m =
  (m.mode <> Cbc_encrypt || Array.for_all (fun l -> l < 0) m.pipe_left)
  && m.fetched < m.n_blocks
  && m.pipe_left.(0) < 0

(* One cycle of the fetch unit; only runs when the port is free. *)
let step_fetch m ~port_free =
  match m.fetch with
  | F_idle ->
    if port_free && fetch_can_start m then begin
      Mem_port.issue m.port ~region:obj_in ~addr:(8 * m.fetched) ~wr:false
        ~width:Cp_port.W32 ~data:0;
      m.fetch <- F_wait_lo
    end
  | F_wait_lo ->
    if Mem_port.ready m.port then begin
      m.fetch_lo <- Mem_port.data m.port;
      if port_free then issue_hi m else m.fetch <- F_hold_lo
    end
  | F_hold_lo -> if port_free then issue_hi m
  | F_wait_hi ->
    if Mem_port.ready m.port then begin
      let hi = Mem_port.data m.port in
      let lo = m.fetch_lo in
      (* The whole block transform is computed here and carried through
         the pipeline; the slots model timing only. The chaining block is
         kept as bus words: XOR commutes with the byte order. *)
      let out = m.crypt_out in
      (match m.mode with
      | Ecb_encrypt | Ecb_decrypt -> Idea_ref.crypt_le32_into m.subkeys ~lo ~hi out
      | Cbc_encrypt ->
        Idea_ref.crypt_le32_into m.subkeys ~lo:(lo lxor m.chain_lo)
          ~hi:(hi lxor m.chain_hi) out;
        m.chain_lo <- out.(0);
        m.chain_hi <- out.(1)
      | Cbc_decrypt ->
        Idea_ref.crypt_le32_into m.subkeys ~lo ~hi out;
        out.(0) <- out.(0) lxor m.chain_lo;
        out.(1) <- out.(1) lxor m.chain_hi;
        m.chain_lo <- lo;
        m.chain_hi <- hi);
      m.pipe_lo.(0) <- out.(0);
      m.pipe_hi.(0) <- out.(1);
      m.pipe_left.(0) <- stage_cycles;
      m.fetched <- m.fetched + 1;
      m.fetch <- F_idle
    end

let step_pipeline m =
  (* Retire-side first so a freed slot can be refilled the same cycle
     order guarantees forward progress, not combinational magic. *)
  let last = stages - 1 in
  if m.pipe_left.(last) = 0 && not m.out_valid then begin
    m.out_valid <- true;
    m.out_lo <- m.pipe_lo.(last);
    m.out_hi <- m.pipe_hi.(last);
    m.pipe_left.(last) <- -1
  end;
  for i = stages - 2 downto 0 do
    if m.pipe_left.(i) = 0 && m.pipe_left.(i + 1) < 0 then begin
      m.pipe_lo.(i + 1) <- m.pipe_lo.(i);
      m.pipe_hi.(i + 1) <- m.pipe_hi.(i);
      m.pipe_left.(i + 1) <- stage_cycles;
      m.pipe_left.(i) <- -1
    end
  done;
  for i = 0 to stages - 1 do
    if m.pipe_left.(i) > 0 then m.pipe_left.(i) <- m.pipe_left.(i) - 1
  done

let run_cycle m =
  step_pipeline m;
  let retire_claimed = step_retire m in
  step_fetch m ~port_free:((not retire_claimed) && not (Mem_port.busy m.port));
  if m.retired = m.n_blocks then begin
    Mem_port.finish m.port;
    Fsm.goto m.fsm Done
  end

let compute m =
  Mem_port.sample m.port;
  Rvi_sim.Stats.tick m.c_cycles;
  match Fsm.state m.fsm with
  | Wait_start | Done ->
    if Mem_port.start_seen m.port then begin
      m.param <- 0;
      Fsm.goto m.fsm Read_param
    end
  | Read_param ->
    Mem_port.read_param m.port ~index:m.param;
    Fsm.goto m.fsm Wait_param
  | Wait_param ->
    if Mem_port.ready m.port then begin
      m.raw_params.(m.param) <- Mem_port.data m.port;
      if m.param + 1 < n_params then begin
        m.param <- m.param + 1;
        Fsm.goto m.fsm Read_param
      end
      else begin
        m.key_left <- key_setup_cycles;
        Fsm.goto m.fsm Key_setup
      end
    end
  | Key_setup ->
    if m.key_left > 1 then m.key_left <- m.key_left - 1
    else begin
      setup_keys m;
      begin_run m
    end
  | Run -> run_cycle m

(* Ticks until the pipeline moves a block: 0 if a stage hands over on
   the next tick (it has finished and its successor is free, or it is the
   last and the output register is empty), else the smallest positive
   countdown, [max_int] if every stage is empty or finished and
   blocked. *)
let pipe_countdown m =
  let last = stages - 1 in
  let h = ref max_int in
  for i = 0 to last do
    let l = m.pipe_left.(i) in
    let next_free =
      if i = last then not m.out_valid else m.pipe_left.(i + 1) < 0
    in
    if l = 0 && next_free then h := 0
    else if l > 0 && l < !h then h := l
  done;
  !h

(* [Run] idles while neither unit can act on the next tick — the retire
   unit acts only in [R_idle] with a result waiting, the fetch unit only
   in [F_hold_lo] or when it may start a block, both only while the port
   is free — and no stage hands over: its ticks only count the stages
   down, which [skip] applies wholesale, so a coprocessor stalled on the
   port (a fault being serviced) or between stage hand-overs executes no
   edges. The parameter and start waits are unbounded port waits, and
   [Key_setup] is a pure countdown like the pipeline's. *)
let idle_hint m =
  if not (Mem_port.quiescent m.port) then 0
  else
    match Fsm.state m.fsm with
    | Wait_start | Wait_param | Done -> max_int
    | Key_setup -> m.key_left - 1
    | Read_param -> 0
    | Run ->
      if m.retired = m.n_blocks then 0
      else if
        (not (Mem_port.busy m.port))
        && ((m.retire = R_idle && m.out_valid)
           || m.fetch = F_hold_lo
           || (m.fetch = F_idle && fetch_can_start m))
      then 0
      else pipe_countdown m

let skip m k =
  Mem_port.settle m.port;
  Rvi_sim.Stats.tick_by m.c_cycles k;
  match Fsm.state m.fsm with
  | Key_setup -> m.key_left <- m.key_left - k
  | Run ->
    for i = 0 to stages - 1 do
      if m.pipe_left.(i) > 0 then m.pipe_left.(i) <- m.pipe_left.(i) - k
    done
  | Wait_start | Read_param | Wait_param | Done -> ()

let create port =
  let stats = Rvi_sim.Stats.create () in
  let m =
    {
      port;
      fsm = Fsm.create Wait_start;
      param = 0;
      key_left = 0;
      raw_params = Array.make n_params 0;
      n_blocks = 0;
      mode = Ecb_encrypt;
      chain_lo = 0;
      chain_hi = 0;
      crypt_out = Array.make 4 0;
      subkeys = [||];
      pipe_lo = Array.make stages 0;
      pipe_hi = Array.make stages 0;
      pipe_left = Array.make stages (-1);
      out_valid = false;
      out_lo = 0;
      out_hi = 0;
      fetch = F_idle;
      fetch_lo = 0;
      fetched = 0;
      retire = R_idle;
      retire_hi = 0;
      retired = 0;
      stats;
      c_cycles = Rvi_sim.Stats.counter stats "cycles";
      c_blocks = Rvi_sim.Stats.counter stats "blocks";
    }
  in
  {
    Coproc.name = "idea";
    component =
      Rvi_sim.Clock.component ~name:"idea"
        ~idle_hint:(fun () -> idle_hint m)
        ~skip:(fun k -> skip m k)
        ~compute:(fun () -> compute m)
        ~commit:(fun () ->
          Fsm.commit m.fsm;
          Mem_port.commit m.port)
          ();
    finished = (fun () -> Fsm.state m.fsm = Done);
    reset =
      (fun () ->
        Fsm.reset m.fsm Wait_start;
        Mem_port.reset m.port);
    stats = m.stats;
  }
