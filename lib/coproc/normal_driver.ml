module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Kernel = Rvi_os.Kernel
module Accounting = Rvi_os.Accounting

type region_spec = {
  region : int;
  buf : Rvi_os.Uspace.buf;
  dir : Rvi_core.Mapped_object.direction;
}

type error =
  | Exceeds_memory of { required : int; available : int }
  | Access_error of { region : int; addr : int }
  | Hardware_stall

let error_to_string = function
  | Exceeds_memory { required; available } ->
    Printf.sprintf "data set (%d B) exceeds available memory (%d B)" required
      available
  | Access_error { region; addr } ->
    Printf.sprintf "coprocessor access outside region %d window (offset %#x)"
      region addr
  | Hardware_stall -> "coprocessor made no progress before the watchdog"

let align4 n = (n + 3) land lnot 3

let charge_copy kernel ahb bytes =
  Kernel.charge kernel Accounting.Sw_dp
    ~cycles:(Rvi_mem.Ahb.copy_cycles ahb ~bytes)

(* Both copies move the window page piece by page piece (it may straddle
   pages) through one page of scratch: [copy_in] reads the page, patches
   the piece and writes the page back; [copy_out] reads the page and
   takes the piece. *)
let copy_in kernel dpram ahb spec ~base =
  match spec.dir with
  | Rvi_core.Mapped_object.In | Rvi_core.Mapped_object.Inout ->
    let len = spec.buf.Rvi_os.Uspace.size in
    let src = spec.buf.Rvi_os.Uspace.addr in
    let sdram = Kernel.sdram kernel in
    let geom = Rvi_mem.Dpram.geometry dpram in
    let page_size = geom.Rvi_mem.Page.page_size in
    let cur = Bytes.create page_size in
    let rec move off =
      if off < len then begin
        let addr = base + off in
        let page = Rvi_mem.Page.vpn geom addr in
        let in_page = Rvi_mem.Page.offset geom addr in
        let n = Int.min (len - off) (page_size - in_page) in
        Rvi_mem.Dpram.store_page dpram ~page cur ~dst:0 ~len:page_size;
        Rvi_mem.Sdram.blit_out sdram ~src:(src + off) cur ~dst:in_page ~len:n;
        Rvi_mem.Dpram.load_page dpram ~page cur ~src:0 ~len:page_size;
        move (off + n)
      end
    in
    move 0;
    charge_copy kernel ahb len
  | Rvi_core.Mapped_object.Out -> ()

let copy_out kernel dpram ahb spec ~base =
  match spec.dir with
  | Rvi_core.Mapped_object.Out | Rvi_core.Mapped_object.Inout ->
    let len = spec.buf.Rvi_os.Uspace.size in
    let dst = spec.buf.Rvi_os.Uspace.addr in
    let sdram = Kernel.sdram kernel in
    let geom = Rvi_mem.Dpram.geometry dpram in
    let page_size = geom.Rvi_mem.Page.page_size in
    let cur = Bytes.create page_size in
    let rec move off =
      if off < len then begin
        let addr = base + off in
        let page = Rvi_mem.Page.vpn geom addr in
        let in_page = Rvi_mem.Page.offset geom addr in
        let n = Int.min (len - off) (page_size - in_page) in
        Rvi_mem.Dpram.store_page dpram ~page cur ~dst:0 ~len:page_size;
        Rvi_mem.Sdram.blit_in cur ~src:in_page sdram ~dst:(dst + off) ~len:n;
        move (off + n)
      end
    in
    move 0;
    charge_copy kernel ahb len
  | Rvi_core.Mapped_object.In -> ()

let run ~kernel ~dpram ~ahb ~clocks ~dport ~coproc ~regions ~params
    ?(watchdog = Simtime.of_ms 10_000) () =
  let required =
    List.fold_left (fun acc s -> acc + align4 s.buf.Rvi_os.Uspace.size) 0 regions
  in
  let available = Rvi_mem.Dpram.size dpram in
  if required > available then Error (Exceeds_memory { required; available })
  else begin
    (* Hardwire the windows, exactly what the hand-written HDL/C pair does. *)
    let bases =
      List.fold_left
        (fun (next, acc) s ->
          Dport.set_region dport ~region:s.region ~base:next
            ~size:s.buf.Rvi_os.Uspace.size;
          (next + align4 s.buf.Rvi_os.Uspace.size, (s, next) :: acc))
        (0, []) regions
      |> snd |> List.rev
    in
    List.iter (fun (s, base) -> copy_in kernel dpram ahb s ~base) bases;
    Dport.set_params dport params;
    Dport.assert_start dport;
    let engine = Kernel.engine kernel in
    let acct = Kernel.accounting kernel in
    List.iter Rvi_sim.Clock.start clocks;
    let deadline = Simtime.add (Engine.now engine) watchdog in
    let hw_start = Engine.now engine in
    (* [deadline] is a sound horizon: the only other thing that flips the
       condition is the coprocessor finishing, and its port's [finish]
       requests an engine break, ending any inline edge batch on the
       finishing edge — so the run stops on the same edge as one engine
       event per edge would. *)
    Dport.set_on_finish dport (fun () -> Engine.request_break engine);
    let outcome =
      match
        Engine.run_while ~horizon:deadline engine (fun () ->
            (not (coproc.Coproc.finished ()))
            && Simtime.(Engine.now engine < deadline))
      with
      | () -> if coproc.Coproc.finished () then Ok () else Error Hardware_stall
      | exception Dport.Out_of_region { region; addr } ->
        Error (Access_error { region; addr })
      | exception Engine.Stalled -> Error Hardware_stall
    in
    Accounting.add acct Accounting.Hw
      (Simtime.sub (Engine.now engine) hw_start);
    List.iter Rvi_sim.Clock.stop clocks;
    match outcome with
    | Ok () ->
      List.iter (fun (s, base) -> copy_out kernel dpram ahb s ~base) bases;
      Ok ()
    | Error e -> Error e
  end

let run_chunked ~kernel ~dpram ~ahb ~clocks ~dport ~coproc ~chunks
    ?(watchdog = Simtime.of_ms 10_000) () =
  let rec go = function
    | [] -> Ok ()
    | (regions, params) :: rest -> (
      coproc.Coproc.reset ();
      match
        run ~kernel ~dpram ~ahb ~clocks ~dport ~coproc ~regions ~params
          ~watchdog ()
      with
      | Ok () -> go rest
      | Error e -> Error e)
  in
  go chunks
