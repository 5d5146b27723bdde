(* Unit tests for the simulated operating system (rvi_os). *)

module Simtime = Rvi_sim.Simtime
module Engine = Rvi_sim.Engine
module Cost_model = Rvi_os.Cost_model
module Accounting = Rvi_os.Accounting
module Irq = Rvi_os.Irq
module Proc = Rvi_os.Proc
module Sched = Rvi_os.Sched
module Syscall = Rvi_os.Syscall
module Kernel = Rvi_os.Kernel
module Uspace = Rvi_os.Uspace

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let cost = Cost_model.default ~cpu_freq_hz:133_000_000

let fresh_kernel () =
  let engine = Engine.create () in
  (engine, Kernel.create ~engine ~cost ~sdram_bytes:(1024 * 1024) ())

(* {1 Cost_model} *)

let test_cost_model () =
  checki "1 cycle at 133MHz" 7518 (Simtime.to_ps (Cost_model.time_of_cycles cost 1));
  checki "roundtrip" 1000 (Cost_model.cycles_of_time cost (Cost_model.time_of_cycles cost 1000));
  Alcotest.check_raises "negative cycles"
    (Invalid_argument "Cost_model.time_of_cycles: negative cycles") (fun () ->
      ignore (Cost_model.time_of_cycles cost (-1)))

(* {1 Accounting} *)

let test_accounting () =
  let a = Accounting.create () in
  Accounting.add a Accounting.Hw (Simtime.of_ms 3);
  Accounting.add a Accounting.Sw_dp (Simtime.of_ms 1);
  Accounting.add a Accounting.Hw (Simtime.of_ms 2);
  checki "hw" 5 (int_of_float (Simtime.to_ms (Accounting.get a Accounting.Hw)));
  checki "total" 6 (int_of_float (Simtime.to_ms (Accounting.total a)));
  Alcotest.(check (float 1e-6)) "fraction" (5.0 /. 6.0)
    (Accounting.fraction a Accounting.Hw);
  Accounting.reset a;
  checki "reset" 0 (Simtime.to_ps (Accounting.total a));
  Alcotest.(check (float 1e-6)) "fraction of empty" 0.0
    (Accounting.fraction a Accounting.Hw);
  checki "all categories" 5 (List.length Accounting.categories)

(* {1 Irq} *)

let test_irq_dispatch () =
  let irq = Irq.create () in
  let log = ref [] in
  Irq.register irq ~line:3 ~name:"three" (fun () -> log := 3 :: !log);
  Irq.register irq ~line:1 ~name:"one" (fun () -> log := 1 :: !log);
  checkb "idle" false (Irq.any_pending irq);
  Irq.raise_line irq ~line:3;
  Irq.raise_line irq ~line:1;
  Irq.raise_line irq ~line:1;
  (* level-triggered: no double-count while pending *)
  checki "raised total" 2 (Irq.raised_total irq);
  checkb "pending" true (Irq.any_pending irq);
  checki "dispatched all" 2 (Irq.dispatch_all irq);
  (* line 1 has priority over line 3, so it runs first and ends up deeper
     in the log *)
  Alcotest.(check (list int)) "priority order" [ 3; 1 ] !log

let test_irq_errors () =
  let irq = Irq.create ~lines:2 () in
  Alcotest.check_raises "line range"
    (Invalid_argument "Irq.raise_line: line 5 out of range") (fun () ->
      Irq.raise_line irq ~line:5);
  Irq.register irq ~line:0 ~name:"a" ignore;
  Alcotest.check_raises "double claim"
    (Invalid_argument "Irq.register: line 0 already claimed by a") (fun () ->
      Irq.register irq ~line:0 ~name:"b" ignore);
  (* A pending line without a handler is a spurious interrupt: counted
     and dropped, never fatal — real controllers see glitched lines. *)
  Irq.raise_line irq ~line:1;
  checkb "spurious dispatch consumed" true (Irq.dispatch_one irq);
  checki "spurious counted" 1
    (Rvi_sim.Stats.get (Irq.stats irq) "spurious_irqs");
  checkb "nothing left pending" false (Irq.any_pending irq)

(* {1 Proc} *)

let test_proc_transitions () =
  let p = Proc.make ~pid:7 ~name:"worker" in
  checkb "starts ready" true (p.Proc.state = Proc.Ready);
  Proc.set_state p Proc.Running;
  Proc.set_state p Proc.Sleeping;
  Proc.set_state p Proc.Ready;
  checki "wakeups counted" 1 p.Proc.wakeups;
  Proc.set_state p Proc.Running;
  Proc.set_state p Proc.Exited;
  Alcotest.check_raises "no resurrection"
    (Invalid_argument "Proc.set_state: worker: illegal exited -> ready")
    (fun () -> Proc.set_state p Proc.Ready)

let test_proc_illegal () =
  let p = Proc.make ~pid:1 ~name:"p" in
  Alcotest.check_raises "ready cannot sleep"
    (Invalid_argument "Proc.set_state: p: illegal ready -> sleeping") (fun () ->
      Proc.set_state p Proc.Sleeping)

(* {1 Sched} *)

let test_sched_round_robin () =
  let s = Sched.create () in
  let a = Sched.spawn s ~name:"a" in
  let b = Sched.spawn s ~name:"b" in
  checkb "idle initially" true ((Sched.current s).Proc.pid = 0);
  let first = Sched.schedule s in
  let second = Sched.schedule s in
  let third = Sched.schedule s in
  checkb "alternates" true
    (first.Proc.pid = a.Proc.pid
    && second.Proc.pid = b.Proc.pid
    && third.Proc.pid = a.Proc.pid);
  checkb "switches counted" true (Sched.context_switches s >= 3)

let test_sched_sleep_wake () =
  let s = Sched.create () in
  let a = Sched.spawn s ~name:"a" in
  ignore (Sched.schedule s);
  Sched.sleep_current s;
  checkb "idle runs while sleeping" true ((Sched.current s).Proc.pid = 0);
  Sched.wake s ~pid:a.Proc.pid;
  checkb "woken is ready" true (a.Proc.state = Proc.Ready);
  let next = Sched.schedule s in
  checkb "woken scheduled" true (next.Proc.pid = a.Proc.pid)

let test_sched_exit () =
  let s = Sched.create () in
  let a = Sched.spawn s ~name:"a" in
  ignore (Sched.schedule s);
  Sched.exit_current s;
  checkb "exited" true (a.Proc.state = Proc.Exited);
  checkb "idle after exit" true ((Sched.current s).Proc.pid = 0);
  checki "process list" 2 (List.length (Sched.processes s))

let test_sched_idle_protections () =
  let s = Sched.create () in
  Alcotest.check_raises "idle cannot sleep"
    (Invalid_argument "Sched.sleep_current: idle task cannot sleep") (fun () ->
      Sched.sleep_current s)

(* {1 Syscall} *)

let test_syscall_dispatch () =
  let t = Syscall.create () in
  Syscall.register t ~number:9 ~name:"nine" (fun args -> Array.fold_left ( + ) 0 args);
  checki "dispatch" 6 (Syscall.dispatch t ~number:9 [| 1; 2; 3 |]);
  checki "enosys" (Syscall.err Syscall.ENOSYS) (Syscall.dispatch t ~number:1 [||]);
  checkb "name" true (Syscall.name_of t ~number:9 = Some "nine");
  Alcotest.(check (list (pair string int))) "invocations" [ ("nine", 1) ]
    (Syscall.invocations t);
  Alcotest.check_raises "double register"
    (Invalid_argument "Syscall.register: number 9 already bound") (fun () ->
      Syscall.register t ~number:9 ~name:"again" (fun _ -> 0))

let test_errno () =
  checki "einval code" 22 (Syscall.errno_code Syscall.EINVAL);
  checkb "roundtrip" true
    (List.for_all
       (fun e -> Syscall.errno_of_code (Syscall.errno_code e) = Some e)
       [ Syscall.ENOSYS; EINVAL; EBUSY; ENOMEM; ENOSPC; EFAULT; EIO ]);
  checkb "unknown code" true (Syscall.errno_of_code 9999 = None);
  checki "err is negative" (-22) (Syscall.err Syscall.EINVAL)

(* {1 Kernel} *)

let test_kernel_charge () =
  let engine, k = fresh_kernel () in
  Kernel.charge k Accounting.Sw_dp ~cycles:133_000;
  Alcotest.(check (float 0.001)) "time advanced ~1ms" 1.0
    (Simtime.to_ms (Engine.now engine));
  checki "ledger matches clock" (Simtime.to_ps (Engine.now engine))
    (Simtime.to_ps (Accounting.total (Kernel.accounting k)))

let test_kernel_charge_runs_events () =
  let engine, k = fresh_kernel () in
  let fired = ref false in
  Engine.schedule_after engine (Simtime.of_us 1) (fun () -> fired := true);
  Kernel.charge k Accounting.Sw_os ~cycles:1_000_000;
  checkb "hardware event inside the span ran" true !fired

let test_kernel_syscall_path () =
  let _, k = fresh_kernel () in
  Syscall.register (Kernel.syscalls k) ~number:77 ~name:"t" (fun _ -> 42);
  checki "result" 42 (Kernel.syscall k ~number:77 [||]);
  checkb "entry/exit charged to Sw_os" true
    (Simtime.to_ps (Accounting.get (Kernel.accounting k) Accounting.Sw_os) > 0);
  checki "stat" 1 (Rvi_sim.Stats.get (Kernel.stats k) "syscalls")

let test_kernel_service_interrupts () =
  let _, k = fresh_kernel () in
  let hits = ref 0 in
  Irq.register (Kernel.irq k) ~line:2 ~name:"x" (fun () -> incr hits);
  Irq.raise_line (Kernel.irq k) ~line:2;
  checki "serviced" 1 (Kernel.service_interrupts k);
  checki "handler ran" 1 !hits;
  checkb "cost charged to Sw_imu" true
    (Simtime.to_ps (Accounting.get (Kernel.accounting k) Accounting.Sw_imu) > 0);
  checki "nothing left" 0 (Kernel.service_interrupts k)

(* {1 Uspace} *)

let test_uspace () =
  let _, k = fresh_kernel () in
  let buf = Uspace.of_bytes k (Bytes.of_string "abcdef") in
  Alcotest.(check string) "roundtrip" "abcdef" (Bytes.to_string (Uspace.read k buf));
  let s = Uspace.sub buf ~pos:2 ~len:3 in
  Alcotest.(check string) "sub view" "cde" (Bytes.to_string (Uspace.read k s));
  Uspace.write k s (Bytes.of_string "XYZ");
  Alcotest.(check string) "write through view" "abXYZf"
    (Bytes.to_string (Uspace.read k buf));
  Alcotest.check_raises "bad view"
    (Invalid_argument "Uspace.view: range outside SDRAM") (fun () ->
      ignore (Uspace.view k ~addr:0 ~size:(2 * 1024 * 1024)));
  Alcotest.check_raises "bad sub"
    (Invalid_argument "Uspace.sub: slice out of bounds") (fun () ->
      ignore (Uspace.sub buf ~pos:4 ~len:10))

(* [Uspace.equal] is [Bytes.equal] on the buffer's contents, without the
   copy: every prefix length (word loop and byte tail) and every single
   differing byte. *)
let test_uspace_equal () =
  let _, k = fresh_kernel () in
  let data = Bytes.init 37 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let buf = Uspace.of_bytes k data in
  for len = 0 to Bytes.length data do
    let view = Uspace.sub buf ~pos:0 ~len in
    checkb "equal to itself" true (Uspace.equal k view (Bytes.sub data 0 len));
    for i = 0 to len - 1 do
      let other = Bytes.sub data 0 len in
      Bytes.set other i (Char.chr ((Char.code (Bytes.get other i) + 1) land 0xFF));
      checkb "one byte differs" false (Uspace.equal k view other)
    done
  done;
  checkb "shorter expected" false (Uspace.equal k buf (Bytes.sub data 0 36));
  checkb "longer expected" false (Uspace.equal k buf (Bytes.cat data data));
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Uspace.equal k buf data))
  done;
  checkb "compares without allocating" true (Gc.minor_words () -. w0 < 8.)

let suite =
  [
    Alcotest.test_case "cost_model/conversion" `Quick test_cost_model;
    Alcotest.test_case "accounting/ledger" `Quick test_accounting;
    Alcotest.test_case "irq/dispatch" `Quick test_irq_dispatch;
    Alcotest.test_case "irq/errors" `Quick test_irq_errors;
    Alcotest.test_case "proc/transitions" `Quick test_proc_transitions;
    Alcotest.test_case "proc/illegal" `Quick test_proc_illegal;
    Alcotest.test_case "sched/round-robin" `Quick test_sched_round_robin;
    Alcotest.test_case "sched/sleep-wake" `Quick test_sched_sleep_wake;
    Alcotest.test_case "sched/exit" `Quick test_sched_exit;
    Alcotest.test_case "sched/idle-protected" `Quick test_sched_idle_protections;
    Alcotest.test_case "syscall/dispatch" `Quick test_syscall_dispatch;
    Alcotest.test_case "syscall/errno" `Quick test_errno;
    Alcotest.test_case "kernel/charge" `Quick test_kernel_charge;
    Alcotest.test_case "kernel/charge-runs-events" `Quick test_kernel_charge_runs_events;
    Alcotest.test_case "kernel/syscall-path" `Quick test_kernel_syscall_path;
    Alcotest.test_case "kernel/service-interrupts" `Quick test_kernel_service_interrupts;
    Alcotest.test_case "uspace/views" `Quick test_uspace;
    Alcotest.test_case "uspace/equal-in-place" `Quick test_uspace_equal;
  ]
