type direction = In | Out | Inout

let direction_name = function In -> "in" | Out -> "out" | Inout -> "inout"

type t = {
  id : int;
  buf : Rvi_os.Uspace.buf;
  dir : direction;
  stream : bool;
}

let make ~id ~buf ~dir ?(stream = false) () =
  if id < 0 || id > Cp_port.max_data_obj then
    invalid_arg "Mapped_object.make: identifier out of [0, 254]";
  if buf.Rvi_os.Uspace.size = 0 then
    invalid_arg "Mapped_object.make: empty buffer";
  { id; buf; dir; stream }

let size t = t.buf.Rvi_os.Uspace.size

let page_span t geom = Rvi_mem.Page.page_count geom ~len:(size t)

let bytes_on_page t geom ~vpn =
  let page_size = geom.Rvi_mem.Page.page_size in
  let start = vpn * page_size in
  if start >= size t then 0 else Int.min page_size (size t - start)

let user_offset _t geom ~vpn = vpn * geom.Rvi_mem.Page.page_size

let pp ppf t =
  Format.fprintf ppf "object %d: %d B, %s%s" t.id (size t)
    (direction_name t.dir)
    (if t.stream then ", stream" else "")
