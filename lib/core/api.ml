module Kernel = Rvi_os.Kernel
module Syscall = Rvi_os.Syscall
module Accounting = Rvi_os.Accounting
module Cost_model = Rvi_os.Cost_model

type t = {
  kernel : Kernel.t;
  vim : Vim.t;
  pld : Rvi_fpga.Pld.t;
  bitstreams : (int, Rvi_fpga.Bitstream.t) Hashtbl.t;
  mutable next_handle : int;
  mutable last_error : string option;
  mutable last_transient : bool;
      (* the last FPGA_EXECUTE error classified {!Vim.Transient} *)
}

let dir_code = function
  | Mapped_object.In -> 0
  | Mapped_object.Out -> 1
  | Mapped_object.Inout -> 2

let dir_of_code = function
  | 0 -> Some Mapped_object.In
  | 1 -> Some Mapped_object.Out
  | 2 -> Some Mapped_object.Inout
  | _ -> None

let fail t msg errno =
  t.last_error <- Some msg;
  Syscall.err errno

let handle_load t args =
  if Array.length args <> 1 then fail t "FPGA_LOAD: bad argument count" Syscall.EINVAL
  else
    match Hashtbl.find_opt t.bitstreams args.(0) with
    | None -> fail t "FPGA_LOAD: unknown bit-stream" Syscall.EINVAL
    | Some bs -> (
      let pid = (Rvi_os.Sched.current (Kernel.sched t.kernel)).Rvi_os.Proc.pid in
      let cost = Kernel.cost t.kernel in
      Kernel.charge t.kernel Accounting.Sw_os ~cycles:cost.Cost_model.configure_pld;
      match Rvi_fpga.Pld.configure t.pld ~pid bs with
      | Ok () ->
        t.last_error <- None;
        0
      | Error (Rvi_fpga.Pld.Too_large _ as e) ->
        fail t (Rvi_fpga.Pld.error_to_string e) Syscall.ENOSPC
      | Error (Rvi_fpga.Pld.Locked_by _ as e) ->
        fail t (Rvi_fpga.Pld.error_to_string e) Syscall.EBUSY
      | Error e -> fail t (Rvi_fpga.Pld.error_to_string e) Syscall.EINVAL)

let handle_map t args =
  if Array.length args <> 5 then
    fail t "FPGA_MAP_OBJECT: bad argument count" Syscall.EINVAL
  else
    let id = args.(0) and addr = args.(1) and size = args.(2) in
    let dir = dir_of_code args.(3) and stream = args.(4) <> 0 in
    match dir with
    | None -> fail t "FPGA_MAP_OBJECT: bad direction flag" Syscall.EINVAL
    | Some dir -> (
      match
        let buf = Rvi_os.Uspace.view t.kernel ~addr ~size in
        Mapped_object.make ~id ~buf ~dir ~stream ()
      with
      | exception Invalid_argument msg -> fail t msg Syscall.EFAULT
      | obj -> (
        match Vim.map_object t.vim obj with
        | Ok () ->
          t.last_error <- None;
          0
        | Error msg -> fail t msg Syscall.EINVAL))

let handle_execute t args =
  if Rvi_fpga.Pld.loaded t.pld = None then
    fail t (Vim.error_to_string Vim.Nothing_loaded) Syscall.EINVAL
  else
    match Vim.execute t.vim ~params:(Array.to_list args) with
    | Ok () ->
      t.last_error <- None;
      t.last_transient <- false;
      0
    | Error e ->
      t.last_transient <- (Vim.classify e = Vim.Transient);
      let errno =
        match e with
        | Vim.Unmapped_object _ | Vim.Object_overflow _ | Vim.Sva_fault _ ->
          Syscall.EFAULT
        | Vim.No_frames -> Syscall.ENOMEM
        | Vim.Too_many_params _ -> Syscall.EINVAL
        | Vim.Hardware_stall | Vim.Bus_error | Vim.Dma_failed
        | Vim.Parity_error _ | Vim.Walk_failed _ ->
          Syscall.EIO
        | Vim.Nothing_loaded -> Syscall.EINVAL
      in
      fail t (Vim.error_to_string e) errno

let handle_unload t args =
  if Array.length args <> 0 then
    fail t "FPGA_UNLOAD: bad argument count" Syscall.EINVAL
  else begin
    let pid = (Rvi_os.Sched.current (Kernel.sched t.kernel)).Rvi_os.Proc.pid in
    match Rvi_fpga.Pld.release t.pld ~pid with
    | Ok () ->
      Vim.unmap_all t.vim;
      t.last_error <- None;
      0
    | Error e -> fail t (Rvi_fpga.Pld.error_to_string e) Syscall.EBUSY
  end

let install ~kernel ~vim ~pld =
  let t =
    {
      kernel;
      vim;
      pld;
      bitstreams = Hashtbl.create 4;
      next_handle = 1;
      last_error = None;
      last_transient = false;
    }
  in
  let table = Kernel.syscalls kernel in
  Syscall.register table ~number:Syscall.fpga_load ~name:"fpga_load"
    (handle_load t);
  Syscall.register table ~number:Syscall.fpga_map_object ~name:"fpga_map_object"
    (handle_map t);
  Syscall.register table ~number:Syscall.fpga_execute ~name:"fpga_execute"
    (handle_execute t);
  Syscall.register table ~number:Syscall.fpga_unload ~name:"fpga_unload"
    (handle_unload t);
  t

let vim t = t.vim
let pld t = t.pld

let decode_result t r =
  if r >= 0 then Ok ()
  else
    match Syscall.errno_of_code (-r) with
    | Some e -> Error e
    | None ->
      t.last_error <- Some (Printf.sprintf "unknown errno %d" (-r));
      Error Syscall.EINVAL

(* Register the bit-stream object on the "user side" and pass its handle —
   the moral equivalent of the C API's pointer argument. *)
let fpga_load t bs =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  Hashtbl.replace t.bitstreams handle bs;
  decode_result t (Kernel.syscall t.kernel ~number:Syscall.fpga_load [| handle |])

let fpga_map_object t ~id ~buf ~dir ?(stream = false) () =
  let args =
    [|
      id;
      buf.Rvi_os.Uspace.addr;
      buf.Rvi_os.Uspace.size;
      dir_code dir;
      (if stream then 1 else 0);
    |]
  in
  decode_result t (Kernel.syscall t.kernel ~number:Syscall.fpga_map_object args)

let fpga_execute t ~params =
  decode_result t
    (Kernel.syscall t.kernel ~number:Syscall.fpga_execute (Array.of_list params))

let fpga_unload t =
  decode_result t (Kernel.syscall t.kernel ~number:Syscall.fpga_unload [||])

let last_error t = t.last_error
let last_transient t = t.last_transient

(* Platform pooling: forget user-side bit-stream registrations so handle
   numbering restarts from 1 — a pooled run issues the same handles (and
   therefore the same syscall arguments) as a fresh platform. *)
let reset t =
  Hashtbl.reset t.bitstreams;
  t.next_handle <- 1;
  t.last_error <- None;
  t.last_transient <- false
