type t = { data : Bytes.t }

let create ~size =
  if size <= 0 then invalid_arg "Ram.create: non-positive size";
  { data = Bytes.make size '\000' }

let size t = Bytes.length t.data

let check t addr bytes op =
  if addr < 0 || addr + bytes > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Ram.%s: address %#x (+%d) out of [0, %#x)" op addr bytes
         (Bytes.length t.data))

let read8 t addr =
  check t addr 1 "read8";
  Char.code (Bytes.unsafe_get t.data addr)

let write8 t addr v =
  check t addr 1 "write8";
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

(* The 16/32-bit accessors use the stdlib's single-load primitives; the
   bounds check stays explicit so error messages keep naming the device
   operation. Values are unsigned little-endian words, same range as the
   historical byte-at-a-time loops ([0, 2^width)). *)

let read16 t addr =
  check t addr 2 "read16";
  Bytes.get_uint16_le t.data addr

let write16 t addr v =
  check t addr 2 "write16";
  Bytes.set_uint16_le t.data addr (v land 0xFFFF)

let read32 t addr =
  check t addr 4 "read32";
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let write32 t addr v =
  check t addr 4 "write32";
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let read t ~width addr =
  match width with
  | 8 -> read8 t addr
  | 16 -> read16 t addr
  | 32 -> read32 t addr
  | _ -> invalid_arg "Ram.read: width must be 8, 16 or 32"

let write t ~width addr v =
  match width with
  | 8 -> write8 t addr v
  | 16 -> write16 t addr v
  | 32 -> write32 t addr v
  | _ -> invalid_arg "Ram.write: width must be 8, 16 or 32"

let blit_from_bytes src ~src:spos t ~dst ~len =
  check t dst len "blit_from_bytes";
  Bytes.blit src spos t.data dst len

let blit_to_bytes t ~src dst ~dst:dpos ~len =
  check t src len "blit_to_bytes";
  Bytes.blit t.data src dst dpos len

let blit src ~src:spos dst ~dst:dpos ~len =
  check src spos len "blit(src)";
  check dst dpos len "blit(dst)";
  Bytes.blit src.data spos dst.data dpos len

(* In place, eight bytes at a time: verification compares whole outputs
   here, and a copy of one that large goes straight to the major heap. *)
let equal_bytes t ~pos b =
  let len = Bytes.length b in
  check t pos len "equal_bytes";
  let d = t.data in
  let i = ref 0 in
  while
    !i + 8 <= len
    && (Bytes.get_int64_ne d (pos + !i) : int64) = Bytes.get_int64_ne b !i
  do
    i := !i + 8
  done;
  while !i < len && Bytes.get d (pos + !i) = Bytes.get b !i do
    incr i
  done;
  !i = len

let fill t ~pos ~len c =
  check t pos len "fill";
  Bytes.fill t.data pos len c

let dump t ~pos ~len =
  check t pos len "dump";
  Bytes.sub t.data pos len
