(* Unit and property tests for the memory subsystem (rvi_mem). *)

module Page = Rvi_mem.Page
module Ram = Rvi_mem.Ram
module Dpram = Rvi_mem.Dpram
module Sdram = Rvi_mem.Sdram
module Ahb = Rvi_mem.Ahb

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Page} *)

let epxa1_geom = Page.geometry ~page_size:2048 ~n_pages:8

let test_page_geometry () =
  checki "total" (16 * 1024) (Page.total_bytes epxa1_geom);
  checki "vpn" 3 (Page.vpn epxa1_geom 7000);
  checki "offset" (7000 - (3 * 2048)) (Page.offset epxa1_geom 7000);
  checki "base" 4096 (Page.base epxa1_geom 2);
  checki "page_count exact" 2 (Page.page_count epxa1_geom ~len:4096);
  checki "page_count partial" 3 (Page.page_count epxa1_geom ~len:4097);
  checki "page_count zero" 0 (Page.page_count epxa1_geom ~len:0)

let test_page_invalid () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Page.geometry: page_size must be a power of two >= 16")
    (fun () -> ignore (Page.geometry ~page_size:1000 ~n_pages:4));
  Alcotest.check_raises "zero pages"
    (Invalid_argument "Page.geometry: n_pages >= 1 required") (fun () ->
      ignore (Page.geometry ~page_size:1024 ~n_pages:0))

let prop_page_roundtrip =
  QCheck.Test.make ~name:"page vpn*size+offset reconstructs the address"
    ~count:300
    QCheck.(int_bound (16 * 1024 - 1))
    (fun addr ->
      Page.base epxa1_geom (Page.vpn epxa1_geom addr) + Page.offset epxa1_geom addr
      = addr)

let prop_page_shift_is_division =
  (* [vpn], [base] and [page_count] use the geometry's shift; on every
     shipped device they must equal the division forms they replaced
     (the dual-port RAM's parity index takes its page from [vpn]). *)
  QCheck.Test.make
    ~name:"page shift arithmetic = division on every device geometry"
    ~count:500
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound (1 lsl 20)))
    (fun (addr, len) ->
      List.for_all
        (fun d ->
          let g = Rvi_fpga.Device.geometry d in
          let ps = g.Page.page_size in
          Page.vpn g addr = addr / ps
          && Page.base g (addr / ps) = addr / ps * ps
          && Page.page_count g ~len = (len + ps - 1) / ps
          && 1 lsl g.Page.page_shift = ps)
        Rvi_fpga.Device.all)

(* {1 Ram} *)

let test_ram_rw () =
  let r = Ram.create ~size:64 in
  Ram.write8 r 0 0xAB;
  checki "read8" 0xAB (Ram.read8 r 0);
  Ram.write16 r 10 0xBEEF;
  checki "read16 LE" 0xBEEF (Ram.read16 r 10);
  checki "read16 low byte" 0xEF (Ram.read8 r 10);
  Ram.write32 r 20 0x01020304;
  checki "read32" 0x01020304 (Ram.read32 r 20);
  checki "read32 byte order" 0x04 (Ram.read8 r 20);
  Ram.write r ~width:16 30 0x1234;
  checki "generic read" 0x1234 (Ram.read r ~width:16 30)

let test_ram_bounds () =
  let r = Ram.create ~size:8 in
  Alcotest.check_raises "read past end"
    (Invalid_argument "Ram.read32: address 0x6 (+4) out of [0, 0x8)") (fun () ->
      ignore (Ram.read32 r 6));
  match Ram.read8 r (-1) with
  | _ -> Alcotest.fail "negative address accepted"
  | exception Invalid_argument _ -> ()

let test_ram_blit () =
  let r = Ram.create ~size:32 in
  Ram.blit_from_bytes (Bytes.of_string "hello") ~src:0 r ~dst:4 ~len:5;
  let out = Bytes.make 5 ' ' in
  Ram.blit_to_bytes r ~src:4 out ~dst:0 ~len:5;
  Alcotest.(check string) "roundtrip" "hello" (Bytes.to_string out);
  let r2 = Ram.create ~size:32 in
  Ram.blit r ~src:4 r2 ~dst:0 ~len:5;
  Alcotest.(check string) "ram-to-ram" "hello"
    (Bytes.to_string (Ram.dump r2 ~pos:0 ~len:5));
  Ram.fill r ~pos:4 ~len:5 'x';
  Alcotest.(check string) "fill" "xxxxx" (Bytes.to_string (Ram.dump r ~pos:4 ~len:5))

let prop_ram_w16_r8 =
  QCheck.Test.make ~name:"ram 16-bit write = two little-endian bytes" ~count:200
    QCheck.(pair (int_bound 0xFFFF) (int_bound 29))
    (fun (v, addr) ->
      let r = Ram.create ~size:32 in
      Ram.write16 r addr v;
      Ram.read8 r addr = v land 0xFF && Ram.read8 r (addr + 1) = (v lsr 8) land 0xFF)

(* The single-load accessors must keep exact little-endian byte-wise
   semantics at every offset, aligned or not — the IMU issues 16/32-bit
   coprocessor accesses at arbitrary object offsets and the page-blit
   paths assume the two views never diverge. *)
let prop_ram_width_roundtrip =
  QCheck.Test.make
    ~name:"ram 8/16/32 accessors round-trip and match byte-wise reads at any \
           offset"
    ~count:300
    QCheck.(triple (int_bound 2) (int_bound 59) (int_bound 0x3FFFFFFF))
    (fun (wsel, addr, v) ->
      let width = match wsel with 0 -> 8 | 1 -> 16 | _ -> 32 in
      let mask = (1 lsl width) - 1 in
      let v = v land mask in
      let r = Ram.create ~size:64 in
      (* surround with a sentinel pattern to catch stray writes *)
      Ram.fill r ~pos:0 ~len:64 '\x5A';
      Ram.write r ~width addr v;
      let bytewise =
        let n = width / 8 in
        let acc = ref 0 in
        for i = n - 1 downto 0 do
          acc := (!acc lsl 8) lor Ram.read8 r (addr + i)
        done;
        !acc
      in
      Ram.read r ~width addr = v
      && bytewise = v
      && (* every byte outside the write is untouched *)
      (let intact = ref true in
       for i = 0 to 63 do
         if i < addr || i >= addr + (width / 8) then
           if Ram.read8 r i <> 0x5A then intact := false
       done;
       !intact))

(* {1 Dpram} *)

let test_dpram_pages () =
  let d = Dpram.create epxa1_geom in
  checki "pages" 8 (Dpram.n_pages d);
  checki "page size" 2048 (Dpram.page_size d);
  checki "size" (16 * 1024) (Dpram.size d);
  let data = Bytes.make 100 'z' in
  Dpram.load_page d ~page:2 data ~src:0 ~len:100;
  checki "loaded" (Char.code 'z') (Dpram.read d ~width:8 (2 * 2048));
  checki "zero filled tail" 0 (Dpram.read d ~width:8 ((2 * 2048) + 100));
  let out = Bytes.make 100 ' ' in
  Dpram.store_page d ~page:2 out ~dst:0 ~len:100;
  Alcotest.(check string) "store" (Bytes.to_string data) (Bytes.to_string out);
  Dpram.clear_page d ~page:2;
  checki "cleared" 0 (Dpram.read d ~width:8 (2 * 2048))

let test_dpram_ports_and_stats () =
  let d = Dpram.create epxa1_geom in
  Dpram.write d ~width:32 0 0xCAFE;
  checki "pld sees" 0xCAFE (Dpram.read d ~width:32 0);
  Dpram.cpu_write32 d 4 0xBEEF;
  checki "cpu write visible to pld" 0xBEEF (Dpram.read d ~width:32 4);
  checki "cpu read" 0xCAFE (Dpram.cpu_read32 d 0);
  let s = Dpram.stats d in
  checki "pld_reads" 2 (Rvi_sim.Stats.get s "pld_reads");
  checki "pld_writes" 1 (Rvi_sim.Stats.get s "pld_writes");
  checki "cpu_words" 2 (Rvi_sim.Stats.get s "cpu_words")

let test_dpram_parity_page_indexing () =
  (* Corruption is indexed per page: a check on page B must not report —
     or pay for — flips latent on page A. The ["parity_scan_steps"]
     counter pins the cost model at exactly one probe per check. *)
  let d = Dpram.create epxa1_geom in
  let spec = [ { Rvi_inject.Spec.kind = Rvi_inject.Fault.Dpram_flip; rate = 1.0 } ] in
  let inj = Rvi_inject.Injector.create ~seed:7 ~spec in
  Dpram.set_injector d (Some inj);
  (* rate 1.0: every PLD write flips one bit of the cell it just wrote —
     pile several latent flips onto page 2 and nothing anywhere else *)
  let base_a = Page.base epxa1_geom 2 in
  Dpram.write d ~width:32 base_a 0xdeadbeef;
  Dpram.write d ~width:32 (base_a + 64) 0x12345678;
  Dpram.write d ~width:32 (base_a + 128) 0x0f0f0f0f;
  Dpram.write d ~width:32 (base_a + 192) 0x55aa55aa;
  Dpram.set_injector d None;
  let s = Dpram.stats d in
  checki "flips landed" 4 (Rvi_sim.Stats.get s "bit_flips");
  let steps () = Rvi_sim.Stats.get s "parity_scan_steps" in
  let checks () = Rvi_sim.Stats.get s "parity_page_checks" in
  let before = steps () in
  checkb "page A dirty" true (Dpram.parity_error d ~page:2);
  checki "one probe despite 4 latent flips" (before + 1) (steps ());
  let before = steps () in
  checkb "page B clean" false (Dpram.parity_error d ~page:1);
  checkb "page C clean" false (Dpram.parity_error d ~page:3);
  checki "clean checks cost one probe each" (before + 2) (steps ());
  checki "every call counted" 3 (checks ());
  (* refreshing page A's parity (page load) clears its index entry *)
  Dpram.load_page d ~page:2 (Bytes.make 16 'x') ~src:0 ~len:16;
  checkb "page A clean after reload" false (Dpram.parity_error d ~page:2);
  checkb "page B still clean" false (Dpram.parity_error d ~page:1)

let test_dpram_bad_page () =
  let d = Dpram.create epxa1_geom in
  Alcotest.check_raises "page out of range"
    (Invalid_argument "Dpram.load_page: page 8 out of [0, 8)") (fun () ->
      Dpram.load_page d ~page:8 (Bytes.create 1) ~src:0 ~len:1);
  Alcotest.check_raises "oversize load"
    (Invalid_argument "Dpram.load_page: bad length") (fun () ->
      Dpram.load_page d ~page:0 (Bytes.create 4096) ~src:0 ~len:4096)

(* {1 Sdram} *)

let test_sdram_alloc () =
  let s = Sdram.create ~size:1024 in
  let a = Sdram.alloc s 10 in
  let b = Sdram.alloc s 10 in
  checkb "distinct" true (a <> b);
  checki "aligned" 0 (b mod 4);
  checkb "used grows" true (Sdram.used s >= 20);
  let c = Sdram.alloc s ~align:64 1 in
  checki "custom align" 0 (c mod 64);
  Sdram.release_all s;
  checki "released" 0 (Sdram.used s);
  Alcotest.check_raises "exhaustion" Out_of_memory (fun () ->
      ignore (Sdram.alloc s 2048))

let test_sdram_rw () =
  let s = Sdram.create ~size:256 in
  Sdram.write_bytes s 16 (Bytes.of_string "data!");
  Alcotest.(check string) "bytes roundtrip" "data!"
    (Bytes.to_string (Sdram.read_bytes s 16 ~len:5));
  Sdram.write32 s 32 0xFEED;
  checki "word" 0xFEED (Sdram.read32 s 32);
  Sdram.write16 s 40 0x1234;
  checki "half" 0x1234 (Sdram.read16 s 40);
  Sdram.write8 s 44 0x56;
  checki "byte" 0x56 (Sdram.read8 s 44)

(* {1 Ahb} *)

let test_ahb_costs () =
  let a = Ahb.default in
  checki "zero bytes free" 0 (Ahb.copy_cycles a ~bytes:0);
  checki "words round up" 2 (Ahb.words a ~bytes:5);
  checki "one page"
    (a.Ahb.setup_cycles + (512 * a.Ahb.cycles_per_word))
    (Ahb.copy_cycles a ~bytes:2048);
  let custom = Ahb.make ~word_bytes:8 ~setup_cycles:10 ~cycles_per_word:2 in
  checki "custom" (10 + (2 * 2)) (Ahb.copy_cycles custom ~bytes:16)

let prop_ahb_monotone =
  QCheck.Test.make ~name:"ahb copy cost is monotone in size" ~count:200
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (x, y) ->
      let lo = min x y and hi = max x y in
      Ahb.copy_cycles Ahb.default ~bytes:lo <= Ahb.copy_cycles Ahb.default ~bytes:hi)

let suite =
  [
    Alcotest.test_case "page/geometry" `Quick test_page_geometry;
    Alcotest.test_case "page/invalid" `Quick test_page_invalid;
    QCheck_alcotest.to_alcotest prop_page_roundtrip;
    QCheck_alcotest.to_alcotest prop_page_shift_is_division;
    Alcotest.test_case "ram/rw" `Quick test_ram_rw;
    Alcotest.test_case "ram/bounds" `Quick test_ram_bounds;
    Alcotest.test_case "ram/blit" `Quick test_ram_blit;
    QCheck_alcotest.to_alcotest prop_ram_w16_r8;
    QCheck_alcotest.to_alcotest prop_ram_width_roundtrip;
    Alcotest.test_case "dpram/pages" `Quick test_dpram_pages;
    Alcotest.test_case "dpram/ports-stats" `Quick test_dpram_ports_and_stats;
    Alcotest.test_case "dpram/parity-page-indexing" `Quick
      test_dpram_parity_page_indexing;
    Alcotest.test_case "dpram/bad-page" `Quick test_dpram_bad_page;
    Alcotest.test_case "sdram/alloc" `Quick test_sdram_alloc;
    Alcotest.test_case "sdram/rw" `Quick test_sdram_rw;
    Alcotest.test_case "ahb/costs" `Quick test_ahb_costs;
    QCheck_alcotest.to_alcotest prop_ahb_monotone;
  ]
