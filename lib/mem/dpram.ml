type t = {
  ram : Ram.t;
  geom : Page.geometry;
  stats : Rvi_sim.Stats.t;
  c_pld_reads : Rvi_sim.Stats.counter;
  c_pld_writes : Rvi_sim.Stats.counter;
  c_cpu_words : Rvi_sim.Stats.counter;
  c_parity_checks : Rvi_sim.Stats.counter;
  c_parity_steps : Rvi_sim.Stats.counter;
  c_pages_loaded : Rvi_sim.Stats.counter;
  c_pages_stored : Rvi_sim.Stats.counter;
  corrupted : (int, unit) Hashtbl.t;
      (* byte addresses whose stored parity no longer matches the data,
         i.e. locations where an injected bit flip is still latent *)
  page_flips : int array;
      (* per-page count of latent corrupted bytes — the index the parity
         checker consults, so a check's cost never depends on how much
         corruption *other* pages carry *)
  mutable corrupted_total : int;
  mutable injector : Rvi_inject.Injector.t option;
}

let create geom =
  let stats = Rvi_sim.Stats.create () in
  {
    ram = Ram.create ~size:(Page.total_bytes geom);
    geom;
    stats;
    c_pld_reads = Rvi_sim.Stats.counter stats "pld_reads";
    c_pld_writes = Rvi_sim.Stats.counter stats "pld_writes";
    c_cpu_words = Rvi_sim.Stats.counter stats "cpu_words";
    c_parity_checks = Rvi_sim.Stats.counter stats "parity_page_checks";
    c_parity_steps = Rvi_sim.Stats.counter stats "parity_scan_steps";
    c_pages_loaded = Rvi_sim.Stats.counter stats "pages_loaded";
    c_pages_stored = Rvi_sim.Stats.counter stats "pages_stored";
    corrupted = Hashtbl.create 16;
    page_flips = Array.make geom.Page.n_pages 0;
    corrupted_total = 0;
    injector = None;
  }

let set_injector t inj = t.injector <- inj

let geometry t = t.geom
let size t = Ram.size t.ram
let n_pages t = t.geom.Page.n_pages
let page_size t = t.geom.Page.page_size

let page_of_addr t addr = addr / t.geom.Page.page_size

let mark_corrupt t addr =
  if not (Hashtbl.mem t.corrupted addr) then begin
    Hashtbl.add t.corrupted addr ();
    let p = page_of_addr t addr in
    t.page_flips.(p) <- t.page_flips.(p) + 1;
    t.corrupted_total <- t.corrupted_total + 1
  end

let clear_corruption t ~pos ~len =
  if t.corrupted_total > 0 then
    for addr = pos to pos + len - 1 do
      if Hashtbl.mem t.corrupted addr then begin
        Hashtbl.remove t.corrupted addr;
        let p = page_of_addr t addr in
        t.page_flips.(p) <- t.page_flips.(p) - 1;
        t.corrupted_total <- t.corrupted_total - 1
      end
    done

let read t ~width addr =
  Rvi_sim.Stats.tick t.c_pld_reads;
  Ram.read t.ram ~width addr

let write t ~width addr v =
  Rvi_sim.Stats.tick t.c_pld_writes;
  Ram.write t.ram ~width addr v;
  (* A store refreshes the parity of the bytes it covers... *)
  clear_corruption t ~pos:addr ~len:(width / 8);
  (* ...unless the cell flips a bit underneath it. The flip lands in the
     array (later reads see it) and leaves the parity stale, which is how
     the kernel's flush-time parity check catches it. *)
  match t.injector with
  | Some inj when Rvi_inject.Injector.fire inj Rvi_inject.Fault.Dpram_flip ->
    let bit = Rvi_inject.Injector.draw inj width in
    let byte_addr = addr + (bit / 8) in
    Ram.write8 t.ram byte_addr (Ram.read8 t.ram byte_addr lxor (1 lsl (bit mod 8)));
    mark_corrupt t byte_addr;
    Rvi_sim.Stats.incr t.stats "bit_flips"
  | _ -> ()

let check_page t page op =
  if page < 0 || page >= n_pages t then
    invalid_arg (Printf.sprintf "Dpram.%s: page %d out of [0, %d)" op page (n_pages t))

let parity_error t ~page =
  check_page t page "parity_error";
  Rvi_sim.Stats.tick t.c_parity_checks;
  (* One indexed probe per check ("scan step"), regardless of how many
     latent flips other pages hold. *)
  Rvi_sim.Stats.tick t.c_parity_steps;
  t.page_flips.(page) > 0

let clear_page_corruption t page =
  if t.page_flips.(page) > 0 then
    clear_corruption t ~pos:(Page.base t.geom page) ~len:(page_size t)

let load_page t ~page buf ~src ~len =
  check_page t page "load_page";
  if len < 0 || len > page_size t then invalid_arg "Dpram.load_page: bad length";
  let base = Page.base t.geom page in
  Ram.blit_from_bytes buf ~src t.ram ~dst:base ~len;
  if len < page_size t then Ram.fill t.ram ~pos:(base + len) ~len:(page_size t - len) '\000';
  clear_page_corruption t page;
  Rvi_sim.Stats.tick t.c_pages_loaded

let store_page t ~page buf ~dst ~len =
  check_page t page "store_page";
  if len < 0 || len > page_size t then invalid_arg "Dpram.store_page: bad length";
  let base = Page.base t.geom page in
  Ram.blit_to_bytes t.ram ~src:base buf ~dst ~len;
  Rvi_sim.Stats.tick t.c_pages_stored

(* Page-granular device-to-device blits: the VIM copy engine moves whole
   pages between SDRAM and the dual-port array directly, instead of
   bouncing through an intermediate [Bytes.t]. Semantics (tail zero-fill,
   parity refresh, stats) match [load_page]/[store_page] exactly. *)
let load_page_from_ram t ~page src ~src_pos ~len =
  check_page t page "load_page_from_ram";
  if len < 0 || len > page_size t then
    invalid_arg "Dpram.load_page_from_ram: bad length";
  let base = Page.base t.geom page in
  Ram.blit src ~src:src_pos t.ram ~dst:base ~len;
  if len < page_size t then
    Ram.fill t.ram ~pos:(base + len) ~len:(page_size t - len) '\000';
  clear_page_corruption t page;
  Rvi_sim.Stats.tick t.c_pages_loaded

let store_page_to_ram t ~page dst ~dst_pos ~len =
  check_page t page "store_page_to_ram";
  if len < 0 || len > page_size t then
    invalid_arg "Dpram.store_page_to_ram: bad length";
  let base = Page.base t.geom page in
  Ram.blit t.ram ~src:base dst ~dst:dst_pos ~len;
  Rvi_sim.Stats.tick t.c_pages_stored

let clear_page t ~page =
  check_page t page "clear_page";
  Ram.fill t.ram ~pos:(Page.base t.geom page) ~len:(page_size t) '\000';
  clear_page_corruption t page

let cpu_read32 t addr =
  Rvi_sim.Stats.tick t.c_cpu_words;
  Ram.read32 t.ram addr

let cpu_write32 t addr v =
  Rvi_sim.Stats.tick t.c_cpu_words;
  Ram.write32 t.ram addr v;
  clear_corruption t ~pos:addr ~len:4

let stats t = t.stats

(* Platform pooling: restore the power-on image — all-zero array, no latent
   corruption, zeroed counters (in place, so the pre-resolved port-traffic
   handles stay attached), no injector. *)
let reset t =
  Ram.fill t.ram ~pos:0 ~len:(Ram.size t.ram) '\000';
  Hashtbl.reset t.corrupted;
  Array.fill t.page_flips 0 (Array.length t.page_flips) 0;
  t.corrupted_total <- 0;
  t.injector <- None;
  Rvi_sim.Stats.soft_reset t.stats
