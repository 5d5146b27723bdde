type t = { ram : Ram.t; mutable brk : int }

let create ~size = { ram = Ram.create ~size; brk = 0 }
let size t = Ram.size t.ram

let alloc t ?(align = 4) n =
  if n < 0 then invalid_arg "Sdram.alloc: negative size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Sdram.alloc: alignment must be a power of two";
  let base = (t.brk + align - 1) land lnot (align - 1) in
  if base + n > size t then raise Out_of_memory;
  t.brk <- base + n;
  base

let used t = t.brk
let release_all t = t.brk <- 0

let read8 t = Ram.read8 t.ram
let write8 t = Ram.write8 t.ram
let read16 t = Ram.read16 t.ram
let write16 t = Ram.write16 t.ram
let read32 t = Ram.read32 t.ram
let write32 t = Ram.write32 t.ram

let write_bytes t addr b =
  Ram.blit_from_bytes b ~src:0 t.ram ~dst:addr ~len:(Bytes.length b)

let read_bytes t addr ~len =
  let b = Bytes.create len in
  Ram.blit_to_bytes t.ram ~src:addr b ~dst:0 ~len;
  b

let equal_bytes t addr b = Ram.equal_bytes t.ram ~pos:addr b

let blit_out t ~src b ~dst ~len = Ram.blit_to_bytes t.ram ~src b ~dst ~len
let blit_in b ~src t ~dst ~len = Ram.blit_from_bytes b ~src t.ram ~dst ~len

let raw t = t.ram

let reset t =
  if t.brk > 0 then Ram.fill t.ram ~pos:0 ~len:t.brk '\000';
  t.brk <- 0
