module Cp_port = Rvi_core.Cp_port

let obj_a = 0
let obj_b = 1
let obj_c = 2

let reference ~a ~b =
  if Array.length a <> Array.length b then
    invalid_arg "Vecadd.reference: length mismatch";
  Array.init (Array.length a) (fun i -> (a.(i) + b.(i)) land 0xFFFF_FFFF)

(* Load, load, add, store per element on a simple in-order core. *)
let sw_cycles_per_element = 12

(* [Wait_a] to [Wait_c] work on element [i]. *)
type state =
  | Wait_start
  | Read_param
  | Wait_param
  | Wait_a
  | Wait_b
  | Write_c
  | Wait_c
  | Done

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = state
end)

type m = {
  port : Mem_port.t;
  fsm : Fsm.t;
  mutable n : int;
  mutable i : int;
  mutable reg_a : int;
  mutable reg_c : int;
  stats : Rvi_sim.Stats.t;
  c_cycles : Rvi_sim.Stats.counter;
  c_elements : Rvi_sim.Stats.counter;
}

let read m ~obj =
  Mem_port.issue m.port ~region:obj ~addr:(4 * m.i) ~wr:false ~width:Cp_port.W32
    ~data:0

let write m ~obj ~data =
  Mem_port.issue m.port ~region:obj ~addr:(4 * m.i) ~wr:true ~width:Cp_port.W32
    ~data

(* Advance past element [i]: either fetch the next one or finish. *)
let next_element m =
  if m.i + 1 < m.n then begin
    m.i <- m.i + 1;
    read m ~obj:obj_a;
    Fsm.goto m.fsm Wait_a
  end
  else begin
    Mem_port.finish m.port;
    Fsm.goto m.fsm Done
  end

let compute m =
  Mem_port.sample m.port;
  Rvi_sim.Stats.tick m.c_cycles;
  match Fsm.state m.fsm with
  | Wait_start | Done ->
    if Mem_port.start_seen m.port then Fsm.goto m.fsm Read_param
  | Read_param ->
    Mem_port.read_param m.port ~index:0;
    Fsm.goto m.fsm Wait_param
  | Wait_param ->
    if Mem_port.ready m.port then begin
      m.n <- Mem_port.data m.port;
      if m.n = 0 then begin
        Mem_port.finish m.port;
        Fsm.goto m.fsm Done
      end
      else begin
        m.i <- 0;
        read m ~obj:obj_a;
        Fsm.goto m.fsm Wait_a
      end
    end
  | Wait_a ->
    if Mem_port.ready m.port then begin
      m.reg_a <- Mem_port.data m.port;
      read m ~obj:obj_b;
      Fsm.goto m.fsm Wait_b
    end
  | Wait_b ->
    if Mem_port.ready m.port then begin
      m.reg_c <- (m.reg_a + Mem_port.data m.port) land 0xFFFF_FFFF;
      Fsm.goto m.fsm Write_c
    end
  | Write_c ->
    write m ~obj:obj_c ~data:m.reg_c;
    Rvi_sim.Stats.tick m.c_elements;
    Fsm.goto m.fsm Wait_c
  | Wait_c -> if Mem_port.ready m.port then next_element m

(* Every wait state polls the port; with the port quiescent those polls
   are pure no-op ticks until some other component supplies the response
   or start pulse, so they can be fast-forwarded without bound. The
   active states (issuing, adding) always do real work. *)
let idle_hint m =
  if not (Mem_port.quiescent m.port) then 0
  else
    match Fsm.state m.fsm with
    | Wait_start | Wait_param | Wait_a | Wait_b | Wait_c | Done -> max_int
    | Read_param | Write_c -> 0

let skip m k =
  Mem_port.settle m.port;
  Rvi_sim.Stats.tick_by m.c_cycles k

let create port =
  let stats = Rvi_sim.Stats.create () in
  let m =
    {
      port;
      fsm = Fsm.create Wait_start;
      n = 0;
      i = 0;
      reg_a = 0;
      reg_c = 0;
      stats;
      c_cycles = Rvi_sim.Stats.counter stats "cycles";
      c_elements = Rvi_sim.Stats.counter stats "elements";
    }
  in
  {
    Coproc.name = "vecadd";
    component =
      Rvi_sim.Clock.component ~name:"vecadd"
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
        m.n <- 0;
        Mem_port.reset m.port);
    stats = m.stats;
  }
