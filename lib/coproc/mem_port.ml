type t = Virtual of Vport.t | Direct of Dport.t

let sample = function Virtual v -> Vport.sample v | Direct d -> Dport.sample d

let start_seen = function
  | Virtual v -> Vport.start_seen v
  | Direct d -> Dport.start_seen d

let issue t ~region ~addr ~wr ~width ~data =
  match t with
  | Virtual v -> Vport.issue v ~region ~addr ~wr ~width ~data
  | Direct d -> Dport.issue d ~region ~addr ~wr ~width ~data

let busy = function Virtual v -> Vport.busy v | Direct d -> Dport.busy d
let ready = function Virtual v -> Vport.ready v | Direct d -> Dport.ready d
let data = function Virtual v -> Vport.data v | Direct d -> Dport.data d
let finish = function Virtual v -> Vport.finish v | Direct d -> Dport.finish d
(* A virtual port drives its signals from the IMU clock domain
   ([Vport.fused_component]), so the coprocessor's own commit has nothing
   to move. *)
let commit = function Virtual _ -> () | Direct d -> Dport.commit d
let reset = function Virtual v -> Vport.reset v | Direct d -> Dport.reset d

let quiescent = function
  | Virtual v -> Vport.quiescent v
  | Direct d -> Dport.quiescent d

let settle = function Virtual v -> Vport.settle v | Direct d -> Dport.settle d

let read_param t ~index =
  issue t ~region:Rvi_core.Cp_port.param_obj ~addr:(4 * index) ~wr:false
    ~width:Rvi_core.Cp_port.W32 ~data:0
