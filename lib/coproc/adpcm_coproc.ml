module Cp_port = Rvi_core.Cp_port

let obj_in = 0
let obj_out = 1

(* The serial decode unit: step-table lookup, three conditional adds, two
   clamps and the index update, one operation class per cycle. *)
let decode_cycles = 14

(* Table lookups, branches and 16-bit saturation on the ARM. *)
let sw_cycles_per_sample = 146

(* [Wait_byte] fetches byte [byte_index]; [Decode] works [left] more
   cycles on its low or [high] nibble, and [Wait_write] stores the
   sample. *)
type state =
  | Wait_start
  | Read_param
  | Wait_param
  | Wait_byte
  | Decode
  | Wait_write
  | Done

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = state
end)

type m = {
  port : Mem_port.t;
  fsm : Fsm.t;
  mutable byte_index : int;
  mutable high : bool;
  mutable left : int;
  mutable n_bytes : int;
  mutable byte : int;
  mutable decoder : Adpcm_ref.state;
  stats : Rvi_sim.Stats.t;
  c_cycles : Rvi_sim.Stats.counter;
  c_samples : Rvi_sim.Stats.counter;
}

let begin_run m =
  m.decoder <- Adpcm_ref.initial_state ();
  Mem_port.read_param m.port ~index:0;
  Fsm.goto m.fsm Wait_param

let fetch m i =
  m.byte_index <- i;
  Mem_port.issue m.port ~region:obj_in ~addr:i ~wr:false ~width:Cp_port.W8
    ~data:0;
  Fsm.goto m.fsm Wait_byte

let decode m ~high =
  m.high <- high;
  m.left <- decode_cycles;
  Fsm.goto m.fsm Decode

let compute m =
  Mem_port.sample m.port;
  Rvi_sim.Stats.tick m.c_cycles;
  match Fsm.state m.fsm with
  | Wait_start | Done ->
    if Mem_port.start_seen m.port then Fsm.goto m.fsm Read_param
  | Read_param -> begin_run m
  | Wait_param ->
    if Mem_port.ready m.port then begin
      m.n_bytes <- Mem_port.data m.port;
      if m.n_bytes = 0 then begin
        Mem_port.finish m.port;
        Fsm.goto m.fsm Done
      end
      else fetch m 0
    end
  | Wait_byte ->
    if Mem_port.ready m.port then begin
      m.byte <- Mem_port.data m.port land 0xFF;
      decode m ~high:false
    end
  | Decode ->
    if m.left > 1 then m.left <- m.left - 1
    else begin
      let code = if m.high then m.byte lsr 4 else m.byte land 0xF in
      let sample = Adpcm_ref.decode_nibble m.decoder code land 0xFFFF in
      (* sample [2 byte_index + high] *)
      Mem_port.issue m.port ~region:obj_out
        ~addr:(2 * ((2 * m.byte_index) + Bool.to_int m.high))
        ~wr:true ~width:Cp_port.W16 ~data:sample;
      Rvi_sim.Stats.tick m.c_samples;
      Fsm.goto m.fsm Wait_write
    end
  | Wait_write ->
    if Mem_port.ready m.port then
      if not m.high then decode m ~high:true
      else if m.byte_index + 1 < m.n_bytes then fetch m (m.byte_index + 1)
      else begin
        Mem_port.finish m.port;
        Fsm.goto m.fsm Done
      end

(* Wait states are unbounded no-ops while the port is quiescent. A
   [Decode] countdown additionally exposes its remaining [left - 1]
   decrement ticks — pure bookkeeping applied wholesale by [skip] — which
   is the big win: 13 of every 14 decode cycles per nibble vanish. *)
let idle_hint m =
  if not (Mem_port.quiescent m.port) then 0
  else
    match Fsm.state m.fsm with
    | Wait_start | Wait_param | Wait_byte | Wait_write | Done -> max_int
    | Decode -> m.left - 1
    | Read_param -> 0

let skip m k =
  Mem_port.settle m.port;
  Rvi_sim.Stats.tick_by m.c_cycles k;
  match Fsm.state m.fsm with
  | Decode -> m.left <- m.left - k
  | Wait_start | Read_param | Wait_param | Wait_byte | Wait_write | Done -> ()

let create port =
  let stats = Rvi_sim.Stats.create () in
  let m =
    {
      port;
      fsm = Fsm.create Wait_start;
      byte_index = 0;
      high = false;
      left = 0;
      n_bytes = 0;
      byte = 0;
      decoder = Adpcm_ref.initial_state ();
      stats;
      c_cycles = Rvi_sim.Stats.counter stats "cycles";
      c_samples = Rvi_sim.Stats.counter stats "samples";
    }
  in
  {
    Coproc.name = "adpcmdecode";
    component =
      Rvi_sim.Clock.component ~name:"adpcmdecode"
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
        m.n_bytes <- 0;
        Mem_port.reset m.port);
    stats = m.stats;
  }
