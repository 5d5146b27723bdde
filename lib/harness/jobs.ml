module Uspace = Rvi_os.Uspace
module Mapped_object = Rvi_core.Mapped_object
module Idea_coproc = Rvi_coproc.Idea_coproc

type app_kind = Adpcm | Idea | Fir

let all = [ Adpcm; Idea; Fir ]
let index = function Adpcm -> 0 | Idea -> 1 | Fir -> 2
let app_name = function Adpcm -> "adpcm" | Idea -> "idea" | Fir -> "fir"

let bitstream = function
  | Adpcm -> Calibration.adpcm_bitstream
  | Idea -> Calibration.idea_bitstream
  | Fir -> Calibration.fir_bitstream

let make_virtual = function
  | Adpcm -> Rvi_coproc.Adpcm_coproc.Virtual.create
  | Idea -> Idea_coproc.Virtual.create
  | Fir -> Rvi_coproc.Fir_coproc.Virtual.create

let fir_taps = 16

let normalize_bytes kind bytes =
  match kind with
  | Adpcm -> max 1 bytes
  | Idea -> (max 8 bytes + 7) / 8 * 8
  | Fir ->
    (* >= 2*taps so at least one output sample exists, and even. *)
    let b = max (2 * fir_taps) bytes in
    b - (b land 1)

type obj = {
  id : int;
  dir : Mapped_object.direction;
  stream : bool;
  init : Bytes.t option;
  size : int;
}

type input =
  | Adpcm_in of Bytes.t
  | Idea_in of {
      key : int array;
      mode : Idea_coproc.mode;
      iv : int array;
      data : Bytes.t;
    }
  | Fir_in of { coeffs : int array; shift : int; data : Bytes.t }

let kind = function Adpcm_in _ -> Adpcm | Idea_in _ -> Idea | Fir_in _ -> Fir

let idea_ecb ~decrypt ~key data =
  Idea_in
    {
      key;
      mode = (if decrypt then Idea_coproc.Ecb_decrypt else Idea_coproc.Ecb_encrypt);
      iv = [| 0; 0; 0; 0 |];
      data;
    }

let generate kind ~seed ~bytes =
  match kind with
  | Adpcm -> Adpcm_in (Workload.adpcm_stream ~seed ~bytes)
  | Idea ->
    idea_ecb ~decrypt:false ~key:(Workload.idea_key ~seed)
      (Workload.idea_plaintext ~seed ~bytes)
  | Fir ->
    Fir_in
      {
        coeffs = Workload.fir_coeffs ~taps:fir_taps;
        shift = 12;
        data = Workload.fir_signal ~seed ~bytes;
      }

type recipe = {
  objects : obj list;
  params : int list;
  out_id : int;
  expected : Bytes.t Lazy.t;
}

let input_obj ~id data =
  { id; dir = Mapped_object.In; stream = true; init = Some data; size = Bytes.length data }

let output_obj ~id size =
  { id; dir = Mapped_object.Out; stream = true; init = None; size }

(* Coefficients travel as little-endian 16-bit words. *)
let coeff_bytes coeffs =
  let b = Bytes.create (2 * Array.length coeffs) in
  Array.iteri (fun i c -> Bytes.set_uint16_le b (2 * i) (c land 0xFFFF)) coeffs;
  b

let recipe = function
  | Adpcm_in data ->
    let module C = Rvi_coproc.Adpcm_coproc in
    let n = Bytes.length data in
    {
      objects =
        [
          input_obj ~id:C.obj_in data;
          output_obj ~id:C.obj_out (Rvi_coproc.Adpcm_ref.decoded_size n);
        ];
      params = [ n ];
      out_id = C.obj_out;
      expected = lazy (Rvi_coproc.Adpcm_ref.decode data);
    }
  | Idea_in { key; mode; iv; data } ->
    let n = Bytes.length data in
    let expected =
      lazy
        (match mode with
        | Idea_coproc.Ecb_encrypt -> Rvi_coproc.Idea_ref.ecb ~key ~decrypt:false data
        | Idea_coproc.Ecb_decrypt -> Rvi_coproc.Idea_ref.ecb ~key ~decrypt:true data
        | Idea_coproc.Cbc_encrypt ->
          Rvi_coproc.Idea_ref.cbc ~key ~decrypt:false ~iv data
        | Idea_coproc.Cbc_decrypt -> Rvi_coproc.Idea_ref.cbc ~key ~decrypt:true ~iv data)
    in
    {
      objects =
        [ input_obj ~id:Idea_coproc.obj_in data; output_obj ~id:Idea_coproc.obj_out n ];
      params = Idea_coproc.params_mode ~n_blocks:(n / 8) ~mode ~key ~iv ();
      out_id = Idea_coproc.obj_out;
      expected;
    }
  | Fir_in { coeffs; shift; data } ->
    let module C = Rvi_coproc.Fir_coproc in
    let taps = Array.length coeffs in
    let n = Bytes.length data in
    {
      objects =
        [
          input_obj ~id:C.obj_in data;
          { (input_obj ~id:C.obj_coeff (coeff_bytes coeffs)) with stream = false };
          output_obj ~id:C.obj_out (Rvi_coproc.Fir_ref.output_bytes ~taps n);
        ];
      params = C.params ~n_out:((n / 2) - taps + 1) ~taps ~shift;
      out_id = C.obj_out;
      expected = lazy (Rvi_coproc.Fir_ref.filter_bytes ~coeffs ~shift data);
    }

let verify r read_obj = Bytes.equal (read_obj r.out_id) (Lazy.force r.expected)

let alloc kernel objects =
  List.map
    (fun o ->
      let buf = Uspace.alloc kernel o.size in
      (match o.init with
      | Some data ->
        if Bytes.length data <> o.size then
          invalid_arg "Jobs.alloc: init size mismatch";
        Uspace.write kernel buf data
      | None -> ());
      (o, buf))
    objects

let reader kernel bufs id =
  Uspace.read kernel (snd (List.find (fun (o, _) -> o.id = id) bufs))
