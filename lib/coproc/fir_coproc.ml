module Cp_port = Rvi_core.Cp_port

let obj_in = 0
let obj_coeff = 1
let obj_out = 2
let mac_cycles_per_tap = 1

let params ~n_out ~taps ~shift = [ n_out; taps; shift ]

let sat16 v = if v < -32768 then -32768 else if v > 32767 then 32767 else v
let to_s16 u = if u land 0x8000 <> 0 then (u land 0xFFFF) - 0x10000 else u land 0xFFFF

(* Every state but [Mac] works on index [i]: the parameter word, the
   coefficient, the window sample, or the output. [Mac] accumulates tap
   [tap] of output [i] into [acc]. *)
type state =
  | Wait_start
  | Read_param
  | Wait_param
  | Load_coeff
  | Wait_coeff
  | Fill_window
  | Wait_fill
  | Fetch (* read x[i + taps - 1] *)
  | Wait_sample
  | Mac
  | Wait_write
  | Done

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = state
end)

type m = {
  port : Mem_port.t;
  fsm : Fsm.t;
  mutable i : int;
  mutable tap : int;
  mutable acc : int;
  mutable n_out : int;
  mutable taps : int;
  mutable shift : int;
  coeffs : int array; (* register file *)
  window : int array; (* sliding sample window *)
  stats : Rvi_sim.Stats.t;
  c_cycles : Rvi_sim.Stats.counter;
  c_outputs : Rvi_sim.Stats.counter;
}

let read16 m ~obj ~index =
  Mem_port.issue m.port ~region:obj ~addr:(2 * index) ~wr:false
    ~width:Cp_port.W16 ~data:0

let goto_at m s i =
  m.i <- i;
  Fsm.goto m.fsm s

(* Wait states are unbounded no-ops behind a quiescent port. A [Mac] in
   progress exposes its remaining single-tap cycles: the serial MAC's
   inputs (coefficient file and sample window) are frozen while it runs,
   so [skip] can accumulate the absorbed taps wholesale — same partial
   sums, same cycle count, one executed edge per output instead of one
   per tap. The final tap must execute (it posts the result write). *)
let idle_hint m =
  if not (Mem_port.quiescent m.port) then 0
  else
    match Fsm.state m.fsm with
    | Wait_start | Wait_param | Wait_coeff | Wait_fill | Wait_sample
    | Wait_write | Done ->
      max_int
    | Read_param | Load_coeff | Fill_window | Fetch -> 0
    | Mac -> m.taps - 1 - m.tap

let skip m k =
  Mem_port.settle m.port;
  Rvi_sim.Stats.tick_by m.c_cycles k;
  match Fsm.state m.fsm with
  | Mac ->
    let tap = m.tap in
    for j = tap to tap + k - 1 do
      m.acc <- m.acc + (m.coeffs.(j) * m.window.(j))
    done;
    m.tap <- tap + k
  | Wait_start | Read_param | Wait_param | Load_coeff | Wait_coeff
  | Fill_window | Wait_fill | Fetch | Wait_sample | Wait_write | Done ->
    ()

let compute m =
  Mem_port.sample m.port;
  Rvi_sim.Stats.tick m.c_cycles;
  let i = m.i in
  match Fsm.state m.fsm with
  | Wait_start | Done ->
    if Mem_port.start_seen m.port then goto_at m Read_param 0
  | Read_param ->
    Mem_port.read_param m.port ~index:i;
    Fsm.goto m.fsm Wait_param
  | Wait_param ->
    if Mem_port.ready m.port then begin
      (match i with
      | 0 -> m.n_out <- Mem_port.data m.port
      | 1 -> m.taps <- Mem_port.data m.port
      | _ -> m.shift <- Mem_port.data m.port);
      if i < 2 then goto_at m Read_param (i + 1)
      else if m.n_out = 0 || m.taps = 0 || m.taps > Fir_ref.max_taps then begin
        Mem_port.finish m.port;
        Fsm.goto m.fsm Done
      end
      else goto_at m Load_coeff 0
    end
  | Load_coeff ->
    read16 m ~obj:obj_coeff ~index:i;
    Fsm.goto m.fsm Wait_coeff
  | Wait_coeff ->
    if Mem_port.ready m.port then begin
      m.coeffs.(i) <- to_s16 (Mem_port.data m.port);
      if i + 1 < m.taps then goto_at m Load_coeff (i + 1)
      else goto_at m Fill_window 0
    end
  | Fill_window ->
    if i = m.taps - 1 then goto_at m Fetch 0
    else begin
      read16 m ~obj:obj_in ~index:i;
      Fsm.goto m.fsm Wait_fill
    end
  | Wait_fill ->
    if Mem_port.ready m.port then begin
      m.window.(i) <- to_s16 (Mem_port.data m.port);
      goto_at m Fill_window (i + 1)
    end
  | Fetch ->
    read16 m ~obj:obj_in ~index:(i + m.taps - 1);
    Fsm.goto m.fsm Wait_sample
  | Wait_sample ->
    if Mem_port.ready m.port then begin
      m.window.(m.taps - 1) <- to_s16 (Mem_port.data m.port);
      m.tap <- 0;
      m.acc <- 0;
      Fsm.goto m.fsm Mac
    end
  | Mac ->
    (* One multiply-accumulate per cycle through the serial MAC. *)
    let tap = m.tap in
    m.acc <- m.acc + (m.coeffs.(tap) * m.window.(tap));
    if tap + 1 < m.taps then m.tap <- tap + 1
    else begin
      let y = sat16 (m.acc asr m.shift) land 0xFFFF in
      Mem_port.issue m.port ~region:obj_out ~addr:(2 * i) ~wr:true
        ~width:Cp_port.W16 ~data:y;
      Rvi_sim.Stats.tick m.c_outputs;
      Fsm.goto m.fsm Wait_write
    end
  | Wait_write ->
    if Mem_port.ready m.port then
      if i + 1 < m.n_out then begin
        (* Slide the window by one sample. *)
        Array.blit m.window 1 m.window 0 (m.taps - 1);
        goto_at m Fetch (i + 1)
      end
      else begin
        Mem_port.finish m.port;
        Fsm.goto m.fsm Done
      end

let create port =
  let stats = Rvi_sim.Stats.create () in
  let m =
    {
      port;
      fsm = Fsm.create Wait_start;
      i = 0;
      tap = 0;
      acc = 0;
      n_out = 0;
      taps = 0;
      shift = 0;
      coeffs = Array.make Fir_ref.max_taps 0;
      window = Array.make Fir_ref.max_taps 0;
      stats;
      c_cycles = Rvi_sim.Stats.counter stats "cycles";
      c_outputs = Rvi_sim.Stats.counter stats "outputs";
    }
  in
  {
    Coproc.name = "fir";
    component =
      Rvi_sim.Clock.component ~name:"fir"
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
