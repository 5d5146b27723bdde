type t = {
  name : string;
  logic_elements : int;
  imu_freq_hz : int;
  coproc_divide : int;
  param_words : int;
}

let make ~name ~logic_elements ~imu_freq_hz ?(coproc_divide = 1) ~param_words () =
  if logic_elements <= 0 then invalid_arg "Bitstream.make: logic_elements <= 0";
  if imu_freq_hz <= 0 then invalid_arg "Bitstream.make: imu_freq_hz <= 0";
  if coproc_divide < 1 then invalid_arg "Bitstream.make: coproc_divide < 1";
  if param_words < 0 then invalid_arg "Bitstream.make: param_words < 0";
  { name; logic_elements; imu_freq_hz; coproc_divide; param_words }

let coproc_freq_hz t = t.imu_freq_hz / t.coproc_divide

let equal a b =
  String.equal a.name b.name && a.logic_elements = b.logic_elements
  && a.imu_freq_hz = b.imu_freq_hz && a.coproc_divide = b.coproc_divide
  && a.param_words = b.param_words

let pp ppf t =
  Format.fprintf ppf "%s (%d LEs, IMU %d MHz, coproc %d MHz)" t.name
    t.logic_elements
    (t.imu_freq_hz / 1_000_000)
    (coproc_freq_hz t / 1_000_000)
