type buf = { addr : int; size : int }

let alloc k size =
  let addr = Rvi_mem.Sdram.alloc (Kernel.sdram k) ~align:4 size in
  { addr; size }

let of_bytes k b =
  let buf = alloc k (Bytes.length b) in
  Rvi_mem.Sdram.write_bytes (Kernel.sdram k) buf.addr b;
  buf

let write k buf b =
  if Bytes.length b <> buf.size then invalid_arg "Uspace.write: size mismatch";
  Rvi_mem.Sdram.write_bytes (Kernel.sdram k) buf.addr b

let read k buf = Rvi_mem.Sdram.read_bytes (Kernel.sdram k) buf.addr ~len:buf.size

let equal k buf b =
  Bytes.length b = buf.size && Rvi_mem.Sdram.equal_bytes (Kernel.sdram k) buf.addr b

let sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > buf.size then
    invalid_arg "Uspace.sub: slice out of bounds";
  { addr = buf.addr + pos; size = len }

let va_pages k ~page_size =
  if page_size <= 0 then invalid_arg "Uspace.va_pages: page size must be positive";
  Rvi_mem.Sdram.size (Kernel.sdram k) / page_size

let view k ~addr ~size =
  if addr < 0 || size < 0 || addr + size > Rvi_mem.Sdram.size (Kernel.sdram k)
  then invalid_arg "Uspace.view: range outside SDRAM";
  { addr; size }
