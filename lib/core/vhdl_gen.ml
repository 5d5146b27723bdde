type design = {
  name : string;
  device : Rvi_fpga.Device.t;
  imu_config : Imu.config;
  data_width : int;
}

let is_identifier s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let make ~name ~device ?(imu_config = Imu.default_config) ?(data_width = 32) () =
  if not (is_identifier name) then
    invalid_arg "Vhdl_gen.make: name must be a VHDL identifier";
  if data_width <> 8 && data_width <> 16 && data_width <> 32 then
    invalid_arg "Vhdl_gen.make: data_width must be 8, 16 or 32";
  { name; device; imu_config; data_width }

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let addr_width = 24
let obj_width = 8

let offset_width d = log2 d.device.Rvi_fpga.Device.page_size

let n_pages d =
  d.device.Rvi_fpga.Device.dpram_bytes / d.device.Rvi_fpga.Device.page_size

let ppn_width d = log2 (n_pages d)
let dp_addr_width d = offset_width d + ppn_width d

let header d unit_name =
  Printf.sprintf
    "-- %s: generated by rvi for %s (%d x %d B dual-port pages)\n\
     -- The CP_* interface is the portable contract of Vuletic et al.,\n\
     -- DATE 2004, Figure 4; it matches the rvi simulation bit for bit.\n\
     library ieee;\n\
     use ieee.std_logic_1164.all;\n\
     use ieee.numeric_std.all;\n\n"
    unit_name d.device.Rvi_fpga.Device.name (n_pages d)
    d.device.Rvi_fpga.Device.page_size

let package_name d = d.name ^ "_vif_pkg"

let package_vhdl d =
  String.concat ""
    [
      header d (package_name d);
      Printf.sprintf "package %s is\n" (package_name d);
      Printf.sprintf "  constant CP_ADDR_W   : natural := %d;\n" addr_width;
      Printf.sprintf "  constant CP_OBJ_W    : natural := %d;\n" obj_width;
      Printf.sprintf "  constant CP_DATA_W   : natural := %d;\n" d.data_width;
      Printf.sprintf "  constant PAGE_OFFS_W : natural := %d;\n" (offset_width d);
      Printf.sprintf "  constant PPN_W       : natural := %d;\n" (ppn_width d);
      Printf.sprintf "  constant DP_ADDR_W   : natural := %d;\n" (dp_addr_width d);
      Printf.sprintf "  constant TLB_ENTRIES : natural := %d;\n"
        d.imu_config.Imu.tlb_entries;
      Printf.sprintf "  constant LOOKUP_CYCLES : natural := %d;\n"
        d.imu_config.Imu.lookup_states;
      Printf.sprintf "  constant PARAM_OBJ   : natural := %d;\n" Cp_port.param_obj;
      Printf.sprintf "end package %s;\n" (package_name d);
    ]

let cp_ports _d ~master =
  (* [master = true] renders the coprocessor view (drives the request);
     the IMU entity mirrors every direction. *)
  let dir out = if out = master then "out" else "in " in
  String.concat ""
    [
      Printf.sprintf "    cp_obj    : %s unsigned(CP_OBJ_W - 1 downto 0);\n" (dir true);
      Printf.sprintf "    cp_addr   : %s unsigned(CP_ADDR_W - 1 downto 0);\n" (dir true);
      Printf.sprintf "    cp_dout   : %s std_logic_vector(CP_DATA_W - 1 downto 0);\n"
        (dir true);
      Printf.sprintf "    cp_access : %s std_logic;\n" (dir true);
      Printf.sprintf "    cp_wr     : %s std_logic;\n" (dir true);
      Printf.sprintf "    cp_fin    : %s std_logic;\n" (dir true);
      Printf.sprintf "    cp_start  : %s std_logic;\n" (dir false);
      Printf.sprintf "    cp_tlbhit : %s std_logic;\n" (dir false);
      Printf.sprintf "    cp_din    : %s std_logic_vector(CP_DATA_W - 1 downto 0)\n"
        (dir false);
    ]

let coproc_entity_vhdl d =
  String.concat ""
    [
      header d d.name;
      Printf.sprintf "use work.%s.all;\n\n" (package_name d);
      Printf.sprintf "entity %s is\n" d.name;
      "  port (\n";
      "    clk       : in  std_logic;\n";
      "    reset     : in  std_logic;\n";
      cp_ports d ~master:true;
      "  );\n";
      Printf.sprintf "end entity %s;\n\n" d.name;
      Printf.sprintf "architecture rtl of %s is\n" d.name;
      "begin\n";
      "  -- Portable coprocessor body: issue one-cycle CP_ACCESS pulses with\n";
      "  -- object identifier + offset, wait for CP_TLBHIT, never compute a\n";
      "  -- physical address (see the paper's Figure 5 for the idiom).\n";
      "end architecture rtl;\n";
    ]

let imu_name d = d.name ^ "_imu"

let imu_entity_vhdl d =
  String.concat ""
    [
      header d (imu_name d);
      Printf.sprintf "use work.%s.all;\n\n" (package_name d);
      Printf.sprintf "entity %s is\n" (imu_name d);
      "  generic (\n";
      "    G_TLB_ENTRIES   : natural := TLB_ENTRIES;\n";
      "    G_LOOKUP_CYCLES : natural := LOOKUP_CYCLES\n";
      "  );\n";
      "  port (\n";
      "    clk       : in  std_logic;\n";
      "    reset     : in  std_logic;\n";
      "    -- portable side (coprocessor)\n";
      cp_ports d ~master:false;
      "    ;\n";
      "    -- platform side (dual-port RAM + processor bus)\n";
      "    dp_addr   : out unsigned(DP_ADDR_W - 1 downto 0);\n";
      "    dp_din    : in  std_logic_vector(CP_DATA_W - 1 downto 0);\n";
      "    dp_dout   : out std_logic_vector(CP_DATA_W - 1 downto 0);\n";
      "    dp_en     : out std_logic;\n";
      "    dp_wr     : out std_logic;\n";
      "    bus_ar    : out std_logic_vector(31 downto 0);\n";
      "    bus_sr    : out std_logic_vector(31 downto 0);\n";
      "    bus_cr    : in  std_logic_vector(31 downto 0);\n";
      "    int_pld   : out std_logic\n";
      "  );\n";
      Printf.sprintf "end entity %s;\n" (imu_name d);
    ]

let toplevel_name d = d.name ^ "_stripe"

let toplevel_vhdl d =
  String.concat ""
    [
      header d (toplevel_name d);
      Printf.sprintf "use work.%s.all;\n\n" (package_name d);
      Printf.sprintf "entity %s is\n" (toplevel_name d);
      "  port (\n";
      "    clk     : in  std_logic;\n";
      "    reset   : in  std_logic;\n";
      "    dp_addr : out unsigned(DP_ADDR_W - 1 downto 0);\n";
      "    dp_din  : in  std_logic_vector(CP_DATA_W - 1 downto 0);\n";
      "    dp_dout : out std_logic_vector(CP_DATA_W - 1 downto 0);\n";
      "    dp_en   : out std_logic;\n";
      "    dp_wr   : out std_logic;\n";
      "    bus_ar  : out std_logic_vector(31 downto 0);\n";
      "    bus_sr  : out std_logic_vector(31 downto 0);\n";
      "    bus_cr  : in  std_logic_vector(31 downto 0);\n";
      "    int_pld : out std_logic\n";
      "  );\n";
      Printf.sprintf "end entity %s;\n\n" (toplevel_name d);
      Printf.sprintf "architecture structural of %s is\n" (toplevel_name d);
      "  signal cp_obj    : unsigned(CP_OBJ_W - 1 downto 0);\n";
      "  signal cp_addr   : unsigned(CP_ADDR_W - 1 downto 0);\n";
      "  signal cp_dout   : std_logic_vector(CP_DATA_W - 1 downto 0);\n";
      "  signal cp_din    : std_logic_vector(CP_DATA_W - 1 downto 0);\n";
      "  signal cp_access : std_logic;\n";
      "  signal cp_wr     : std_logic;\n";
      "  signal cp_fin    : std_logic;\n";
      "  signal cp_start  : std_logic;\n";
      "  signal cp_tlbhit : std_logic;\n";
      "begin\n";
      Printf.sprintf "  u_coproc : entity work.%s\n" d.name;
      "    port map (\n";
      "      clk => clk, reset => reset,\n";
      "      cp_obj => cp_obj, cp_addr => cp_addr, cp_dout => cp_dout,\n";
      "      cp_access => cp_access, cp_wr => cp_wr, cp_fin => cp_fin,\n";
      "      cp_start => cp_start, cp_tlbhit => cp_tlbhit, cp_din => cp_din\n";
      "    );\n\n";
      Printf.sprintf "  u_imu : entity work.%s\n" (imu_name d);
      "    port map (\n";
      "      clk => clk, reset => reset,\n";
      "      cp_obj => cp_obj, cp_addr => cp_addr, cp_dout => cp_dout,\n";
      "      cp_access => cp_access, cp_wr => cp_wr, cp_fin => cp_fin,\n";
      "      cp_start => cp_start, cp_tlbhit => cp_tlbhit, cp_din => cp_din,\n";
      "      dp_addr => dp_addr, dp_din => dp_din, dp_dout => dp_dout,\n";
      "      dp_en => dp_en, dp_wr => dp_wr,\n";
      "      bus_ar => bus_ar, bus_sr => bus_sr, bus_cr => bus_cr,\n";
      "      int_pld => int_pld\n";
      "    );\n";
      "end architecture structural;\n";
    ]

let emit_all d =
  [
    (package_name d ^ ".vhd", package_vhdl d);
    (d.name ^ ".vhd", coproc_entity_vhdl d);
    (imu_name d ^ ".vhd", imu_entity_vhdl d);
    (toplevel_name d ^ ".vhd", toplevel_vhdl d);
  ]

let testbench_name d = d.name ^ "_tb"

let testbench_vhdl ?(max_cycles = 4096) d ~wave =
  let get name = Rvi_hw.Wave.values wave name in
  let clk_cycles = Int.min max_cycles (Rvi_hw.Wave.length wave) in
  let access = get "cp_access" in
  let obj = get "cp_obj" in
  let addr = get "cp_addr" in
  let wr = get "cp_wr" in
  let dout = get "cp_dout" in
  let fin = get "cp_fin" in
  let tlbhit = get "cp_tlbhit" in
  let din = get "cp_din" in
  let start = get "cp_start" in
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (header d (testbench_name d));
  add "use work.%s.all;\n\n" (package_name d);
  add "entity %s is\nend entity %s;\n\n" (testbench_name d) (testbench_name d);
  add "architecture vectors of %s is\n" (testbench_name d);
  add "  signal clk       : std_logic := '0';\n";
  add "  signal reset     : std_logic := '1';\n";
  add "  signal cp_obj    : unsigned(CP_OBJ_W - 1 downto 0);\n";
  add "  signal cp_addr   : unsigned(CP_ADDR_W - 1 downto 0);\n";
  add "  signal cp_dout   : std_logic_vector(CP_DATA_W - 1 downto 0);\n";
  add "  signal cp_din    : std_logic_vector(CP_DATA_W - 1 downto 0);\n";
  add "  signal cp_access : std_logic := '0';\n";
  add "  signal cp_wr     : std_logic := '0';\n";
  add "  signal cp_fin    : std_logic := '0';\n";
  add "  signal cp_start  : std_logic;\n";
  add "  signal cp_tlbhit : std_logic;\n";
  add "begin\n";
  add "  clk <= not clk after 12500 ps;\n\n";
  add "  -- device under test: the platform-specific IMU half\n";
  add "  -- (instantiate %s here together with a dual-port RAM model)\n\n"
    (imu_name d);
  add "  stimulus : process\n  begin\n";
  add "    wait for 25 ns; reset <= '0';\n";
  for c = 0 to clk_cycles - 1 do
    add "    -- cycle %d\n" c;
    add "    cp_access <= '%d'; cp_wr <= '%d'; cp_fin <= '%d';\n" access.(c)
      wr.(c) fin.(c);
    if access.(c) = 1 then
      add "    cp_obj <= to_unsigned(%d, CP_OBJ_W); cp_addr <= \
           to_unsigned(%d, CP_ADDR_W); cp_dout <= std_logic_vector(\
           to_unsigned(%d, CP_DATA_W));\n"
        obj.(c) addr.(c) dout.(c);
    add "    wait until rising_edge(clk);\n";
    add "    assert cp_tlbhit = '%d' report \"cycle %d: cp_tlbhit\" severity \
         error;\n"
      tlbhit.(c) c;
    add "    assert cp_start = '%d' report \"cycle %d: cp_start\" severity \
         error;\n"
      start.(c) c;
    if tlbhit.(c) = 1 then
      add "    assert cp_din = std_logic_vector(to_unsigned(%d, CP_DATA_W)) \
           report \"cycle %d: cp_din\" severity error;\n"
        din.(c) c
  done;
  add "    report \"%d vectors passed\" severity note;\n    wait;\n"
    clk_cycles;
  add "  end process;\nend architecture vectors;\n";
  Buffer.contents buf
