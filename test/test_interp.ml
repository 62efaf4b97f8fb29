(* Interpreter tests: scalar operation semantics (against OCaml's Int64 /
   float as ground truth), memory model, builtins, the instruction-count
   clock, fuel and depth limits, the instrumentation event stream, the
   budget/sampler/fault edges of the per-instruction tick, malformed IR
   reaching execution, and the engine's allocation per instruction. *)

open Interp.Rvalue

let run ?hooks ?fuel src =
  let m = Frontend.compile_exn src in
  Cfg.Loop_simplify.run_module m;
  Interp.Machine.run_main (Interp.Machine.create ?hooks ?fuel m)

let output ?fuel src = String.trim (run ?fuel src).Interp.Machine.output

(* ---- scalar op units ---- *)

let test_ibinop_semantics () =
  let ck got want = Alcotest.(check int64) "ibinop" want got in
  ck (Interp.Machine.exec_ibinop Ir.Instr.Add 3L 4L) 7L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Sub 3L 4L) (-1L);
  ck (Interp.Machine.exec_ibinop Ir.Instr.Mul 3L 4L) 12L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Sdiv 7L 2L) 3L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Sdiv (-7L) 2L) (-3L);
  ck (Interp.Machine.exec_ibinop Ir.Instr.Srem 7L 3L) 1L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Srem (-7L) 3L) (-1L);
  (* min_int / -1 must not trap *)
  ck (Interp.Machine.exec_ibinop Ir.Instr.Sdiv Int64.min_int (-1L)) Int64.min_int;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Srem Int64.min_int (-1L)) 0L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.And 12L 10L) 8L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Or 12L 10L) 14L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Xor 12L 10L) 6L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Shl 1L 4L) 16L;
  ck (Interp.Machine.exec_ibinop Ir.Instr.Ashr (-16L) 2L) (-4L);
  ck (Interp.Machine.exec_ibinop Ir.Instr.Lshr (-1L) 60L) 15L;
  (* shift amounts are masked to 6 bits *)
  ck (Interp.Machine.exec_ibinop Ir.Instr.Shl 1L 64L) 1L

let test_div_by_zero () =
  Alcotest.check_raises "div0" (Trap (Div_by_zero, "division by zero")) (fun () ->
      ignore (Interp.Machine.exec_ibinop Ir.Instr.Sdiv 1L 0L));
  Alcotest.check_raises "rem0" (Trap (Div_by_zero, "remainder by zero")) (fun () ->
      ignore (Interp.Machine.exec_ibinop Ir.Instr.Srem 1L 0L))

let prop_ibinop_matches_int64 =
  QCheck.Test.make ~name:"add/sub/mul/and/or/xor match Int64" ~count:500
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      Interp.Machine.exec_ibinop Ir.Instr.Add a b = Int64.add a b
      && Interp.Machine.exec_ibinop Ir.Instr.Sub a b = Int64.sub a b
      && Interp.Machine.exec_ibinop Ir.Instr.Mul a b = Int64.mul a b
      && Interp.Machine.exec_ibinop Ir.Instr.And a b = Int64.logand a b
      && Interp.Machine.exec_ibinop Ir.Instr.Or a b = Int64.logor a b
      && Interp.Machine.exec_ibinop Ir.Instr.Xor a b = Int64.logxor a b)

let prop_icmp_total_order =
  QCheck.Test.make ~name:"icmp consistent with Int64.compare" ~count:500
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let c = Int64.compare a b in
      Interp.Machine.exec_icmp Ir.Instr.Islt (Vint a) (Vint b) = (c < 0)
      && Interp.Machine.exec_icmp Ir.Instr.Isle (Vint a) (Vint b) = (c <= 0)
      && Interp.Machine.exec_icmp Ir.Instr.Ieq (Vint a) (Vint b) = (c = 0))

let test_fcmp_nan () =
  Alcotest.(check bool) "nan not lt" false
    (Interp.Machine.exec_fcmp Ir.Instr.Flt Float.nan 1.0);
  Alcotest.(check bool) "nan ne" true
    (Interp.Machine.exec_fcmp Ir.Instr.Fne Float.nan Float.nan)

(* ---- memory ---- *)

let test_memory_model () =
  let mem = Interp.Rvalue.create [] in
  let base = Interp.Rvalue.alloc mem 4 in
  Interp.Rvalue.store mem base (Vint 42L);
  Alcotest.(check bool) "load back" true (Interp.Rvalue.load mem base = Vint 42L);
  Alcotest.(check bool) "zero init" true (Interp.Rvalue.load mem (base + 3) = Vint 0L);
  Alcotest.check_raises "null deref"
    (Trap (Out_of_bounds, "memory access out of bounds at address 0")) (fun () ->
      ignore (Interp.Rvalue.load mem 0));
  Alcotest.check_raises "oob"
    (Trap
       ( Out_of_bounds,
         Printf.sprintf "memory access out of bounds at address %d" (base + 4) ))
    (fun () -> ignore (Interp.Rvalue.load mem (base + 4)));
  Alcotest.(check int) "words in use" (base + 4) (Interp.Rvalue.words_in_use mem)

let test_memory_limit () =
  let mem = Interp.Rvalue.create ~limit:100 [] in
  Alcotest.(check bool) "small alloc ok" true (Interp.Rvalue.alloc mem 50 > 0);
  match Interp.Rvalue.alloc mem 100 with
  | _ -> Alcotest.fail "expected heap budget stop"
  | exception Budget_stop Heap -> ()

let test_globals_in_memory () =
  let mem =
    Interp.Rvalue.create
      [ { Ir.Func.gname = "g"; gty = Ir.Types.I64; ginit = Ir.Types.Cint 9L } ]
  in
  let a = Interp.Rvalue.global_addr mem "g" in
  Alcotest.(check bool) "initialized" true (Interp.Rvalue.load mem a = Vint 9L);
  Alcotest.check_raises "unknown global" (Runtime_error "unknown global @nope")
    (fun () -> ignore (Interp.Rvalue.global_addr mem "nope"))

(* ---- whole-program behaviour ---- *)

let test_clock_counts_instructions () =
  (* straight-line: alloc-free program with a known instruction count *)
  let out = run "fn main() -> int { return 1 + 2; }" in
  (* add + ret = 2 *)
  Alcotest.(check int) "tiny program cost" 2 out.Interp.Machine.clock

let test_fuel () =
  (* running out of fuel is no longer an error: the machine stops cleanly
     and reports the truncation in the outcome *)
  let out =
    run ~fuel:100
      "fn main() -> int { var x: int = 0; while (true) { x = x + 1; } return x; }"
  in
  Alcotest.(check bool) "truncated by fuel" true
    (out.Interp.Machine.stop = Interp.Machine.Truncated Fuel);
  Alcotest.(check bool) "no return value" true (out.Interp.Machine.ret = None);
  Alcotest.(check bool) "stopped at the budget" true (out.Interp.Machine.clock <= 101)

let test_recursion_limit () =
  let out =
    run "fn f(n: int) -> int { return f(n + 1); } fn main() -> int { return f(0); }"
  in
  Alcotest.(check bool) "truncated by call depth" true
    (out.Interp.Machine.stop = Interp.Machine.Truncated Call_depth)

let test_rand_deterministic () =
  let src =
    {|
fn main() -> int {
  srand(42);
  var a: int = rand();
  var b: int = rand();
  srand(42);
  if (rand() == a && rand() == b && a != b) { print_int(1); } else { print_int(0); }
  return 0;
}
|}
  in
  Alcotest.(check string) "rand reseeds deterministically" "1" (output src)

let test_arrcopy_arrfill () =
  let src =
    {|
fn main() -> int {
  var a: int[] = new int[8];
  var b: int[] = new int[8];
  for (var i: int = 0; i < 8; i = i + 1) { a[i] = i * i; }
  arrcopy(b, a, 8);
  arrfill(a, 5, 4);
  print_int(b[7] * 1000 + a[0] * 100 + a[3] * 10 + a[4]);
  return 0;
}
|}
  in
  (* b[7]=49; a[0],a[3]=5; a[4]=16: 49*1000 + 500 + 50 + 16 *)
  Alcotest.(check string) "arrcopy/arrfill" "49566" (output src)

let test_print_builtins () =
  Alcotest.(check string) "print_char" "Hi"
    (output "fn main() -> int { print_char(72); print_char(105); return 0; }")

(* ---- instrumentation events ---- *)

type counts = {
  mutable enters : int;
  mutable iters : int;
  mutable exits : int;
  mutable reads : int;
  mutable writes : int;
  mutable calls : int;
  mutable builtins : int;
}

let test_event_stream () =
  let c =
    { enters = 0; iters = 0; exits = 0; reads = 0; writes = 0; calls = 0; builtins = 0 }
  in
  let hooks =
    {
      Interp.Events.no_hooks with
      Interp.Events.on_loop_enter = (fun ~lid:_ ~clock:_ -> c.enters <- c.enters + 1);
      on_loop_iter = (fun ~lid:_ ~clock:_ -> c.iters <- c.iters + 1);
      on_loop_exit = (fun ~lid:_ ~clock:_ -> c.exits <- c.exits + 1);
      on_mem_access =
        (fun ~addr:_ ~is_write ~clock:_ ->
          if is_write then c.writes <- c.writes + 1 else c.reads <- c.reads + 1);
      on_call_enter = (fun ~fname:_ ~clock:_ -> c.calls <- c.calls + 1);
      on_builtin_call = (fun ~name:_ ~clock:_ -> c.builtins <- c.builtins + 1);
    }
  in
  let src =
    {|
fn helper(a: int[]) { a[0] = a[0] + 1; }
fn main() -> int {
  var a: int[] = new int[4];
  for (var i: int = 0; i < 5; i = i + 1) {
    helper(a);
  }
  print_int(a[0]);
  return 0;
}
|}
  in
  ignore (run ~hooks src);
  (* one invocation; the header is reached once on entry and then 5 more
     times (after each body execution, including the final failing test) *)
  Alcotest.(check int) "enters" 1 c.enters;
  Alcotest.(check int) "iters" 5 c.iters;
  Alcotest.(check int) "exits" 1 c.exits;
  (* helper: 1 read + 1 write per call; new stores length (1 write); the
     final a[0] read and len read... count exact reads/writes *)
  Alcotest.(check int) "calls = main + 5 helpers" 6 c.calls;
  Alcotest.(check int) "builtins = 1 print" 1 c.builtins;
  Alcotest.(check int) "writes = len + 5 helper stores" 6 c.writes;
  Alcotest.(check int) "reads = 5 helper loads + final load" 6 c.reads

let test_loop_exit_on_return () =
  (* returning from inside a loop must still close the loop *)
  let c =
    { enters = 0; iters = 0; exits = 0; reads = 0; writes = 0; calls = 0; builtins = 0 }
  in
  let hooks =
    {
      Interp.Events.no_hooks with
      Interp.Events.on_loop_enter = (fun ~lid:_ ~clock:_ -> c.enters <- c.enters + 1);
      on_loop_exit = (fun ~lid:_ ~clock:_ -> c.exits <- c.exits + 1);
    }
  in
  let src =
    {|
fn main() -> int {
  for (var i: int = 0; i < 100; i = i + 1) {
    if (i == 3) { return i; }
  }
  return 0;
}
|}
  in
  ignore (run ~hooks src);
  Alcotest.(check int) "enter once" 1 c.enters;
  Alcotest.(check int) "exit closed on return" 1 c.exits

(* ---- graceful degradation ---- *)

(* hooks that track enter/exit balance for loops and calls *)
type balance = {
  mutable loop_enters : int;
  mutable loop_exits : int;
  mutable call_enters : int;
  mutable call_exits : int;
}

let balance_hooks b =
  {
    Interp.Events.no_hooks with
    Interp.Events.on_loop_enter =
      (fun ~lid:_ ~clock:_ -> b.loop_enters <- b.loop_enters + 1);
    on_loop_exit = (fun ~lid:_ ~clock:_ -> b.loop_exits <- b.loop_exits + 1);
    on_call_enter = (fun ~fname:_ ~clock:_ -> b.call_enters <- b.call_enters + 1);
    on_call_exit = (fun ~fname:_ ~clock:_ -> b.call_exits <- b.call_exits + 1);
  }

(* a loop nest that calls a helper which itself loops: exercises unwinding
   through both open loops and open call frames *)
let nested_src =
  {|
fn helper(n: int) -> int {
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}
fn main() -> int {
  var acc: int = 0;
  for (var i: int = 0; i < 1000; i = i + 1) {
    for (var j: int = 0; j < 10; j = j + 1) {
      acc = acc + helper(20);
    }
  }
  print_int(acc);
  return acc;
}
|}

let test_truncation_closes_events () =
  let b = { loop_enters = 0; loop_exits = 0; call_enters = 0; call_exits = 0 } in
  let out = run ~hooks:(balance_hooks b) ~fuel:5_000 nested_src in
  Alcotest.(check bool) "truncated by fuel" true
    (out.Interp.Machine.stop = Interp.Machine.Truncated Fuel);
  (* even though the machine stopped mid-nest, every enter must have been
     matched by a synthetic exit so downstream listeners see a well-formed
     stream *)
  Alcotest.(check int) "loops balanced" b.loop_enters b.loop_exits;
  Alcotest.(check int) "calls balanced" b.call_enters b.call_exits;
  Alcotest.(check bool) "made progress" true (b.loop_enters > 0)

let test_depth_truncation_closes_events () =
  let b = { loop_enters = 0; loop_exits = 0; call_enters = 0; call_exits = 0 } in
  let out =
    run ~hooks:(balance_hooks b)
      "fn f(n: int) -> int { return f(n + 1); } fn main() -> int { return f(0); }"
  in
  Alcotest.(check bool) "truncated by depth" true
    (out.Interp.Machine.stop = Interp.Machine.Truncated Call_depth);
  Alcotest.(check int) "calls balanced" b.call_enters b.call_exits

let test_counter_accessors () =
  let m = Frontend.compile_exn nested_src in
  Cfg.Loop_simplify.run_module m;
  let machine = Interp.Machine.create m in
  let out = Interp.Machine.run_main machine in
  (* the live accessors and the outcome record must agree *)
  Alcotest.(check int) "instructions = clock" out.Interp.Machine.clock
    (Interp.Machine.instructions_retired machine);
  Alcotest.(check int) "mem accesses" out.Interp.Machine.mem_accesses
    (Interp.Machine.mem_accesses machine);
  Alcotest.(check int) "mem events" out.Interp.Machine.mem_events
    (Interp.Machine.mem_events machine);
  Alcotest.(check int) "pruned = accesses - events"
    (out.Interp.Machine.mem_accesses - out.Interp.Machine.mem_events)
    (Interp.Machine.mem_events_pruned machine);
  (* and stay readable when the run ends in a trap, where no outcome record
     exists — the path the driver's counter publication depends on *)
  let faulty =
    Interp.Machine.create ~faults:[ (500, Interp.Machine.Inject_div_by_zero) ] m
  in
  (match Interp.Machine.run_main faulty with
  | _ -> Alcotest.fail "expected injected trap"
  | exception Trap (Div_by_zero, _) -> ());
  Alcotest.(check bool) "instructions readable after trap" true
    (Interp.Machine.instructions_retired faulty >= 500);
  Alcotest.(check bool) "accesses readable after trap" true
    (Interp.Machine.mem_accesses faulty >= Interp.Machine.mem_events faulty)

let test_program_div_by_zero_traps () =
  match run "fn main() -> int { var z: int = 0; return 1 / z; }" with
  | _ -> Alcotest.fail "expected a div-by-zero trap"
  | exception Trap (Div_by_zero, _) -> ()

let test_fault_injection () =
  let m = Frontend.compile_exn nested_src in
  Cfg.Loop_simplify.run_module m;
  (* a div-by-zero injected at clock 500 must surface as a Trap *)
  (match
     Interp.Machine.run_main
       (Interp.Machine.create ~faults:[ (500, Interp.Machine.Inject_div_by_zero) ] m)
   with
  | _ -> Alcotest.fail "expected injected trap"
  | exception Trap (Div_by_zero, msg) ->
      Alcotest.(check bool) "injected message" true
        (Astring_contains.contains msg "injected"));
  (* an injected fuel-out behaves exactly like running out of fuel *)
  let b = { loop_enters = 0; loop_exits = 0; call_enters = 0; call_exits = 0 } in
  let out =
    Interp.Machine.run_main
      (Interp.Machine.create ~hooks:(balance_hooks b)
         ~faults:[ (500, Interp.Machine.Inject_fuel_out) ]
         m)
  in
  Alcotest.(check bool) "injected fuel stop" true
    (out.Interp.Machine.stop = Interp.Machine.Truncated Fuel);
  Alcotest.(check int) "loops balanced" b.loop_enters b.loop_exits;
  Alcotest.(check int) "calls balanced" b.call_enters b.call_exits

(* ---- engine edges ---- *)

let endless = "fn main() -> int { var x: int = 0; while (true) { x = x + 1; } return x; }"

let machine ?fuel ?deadline ?faults src =
  let m = Frontend.compile_exn src in
  Cfg.Loop_simplify.run_module m;
  Interp.Machine.create ?fuel ?deadline ?faults m

let check_stop what want (out : Interp.Machine.outcome) =
  Alcotest.(check string) what
    (Interp.Machine.stop_reason_to_string want)
    (Interp.Machine.stop_reason_to_string out.Interp.Machine.stop)

let test_deadline_poll () =
  (* the wall budget is polled every 64Ki instructions: an already-passed
     deadline stops the run at the first poll *)
  let out = Interp.Machine.run_main (machine ~deadline:0. endless) in
  check_stop "wall stop" (Interp.Machine.Truncated Wall) out;
  Alcotest.(check int) "at the first poll" 65_536 out.Interp.Machine.clock

let test_sampler_under_fuel () =
  let m = machine ~fuel:1000 endless in
  Interp.Machine.enable_opcode_counts m;
  let seen = ref [] in
  Interp.Machine.set_sampler m ~period:300 (fun c -> seen := c :: !seen);
  let out = Interp.Machine.run_main m in
  Alcotest.(check (list int)) "sample clocks" [ 300; 600; 900 ] (List.rev !seen);
  check_stop "fuel stop" (Interp.Machine.Truncated Fuel) out;
  (* The tick that exhausts the fuel counts itself before raising, so the
     clock reads fuel + 1 while only [fuel] instructions ran and the
     opcode counters sum to [fuel]. Kept as is: recorded benchmark results
     pin the fuel + 1 clock of fuel-stopped runs. *)
  Alcotest.(check int) "clock past the fuel" 1001 out.Interp.Machine.clock;
  Alcotest.(check int) "opcode counts sum to the fuel" 1000
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Interp.Machine.opcode_counts m))

let test_fault_at_fuel_edge () =
  (* a fault fires before the instruction is counted, so one stamped at
     the fuel still lands *)
  let m = machine ~fuel:1000 ~faults:[ (1000, Interp.Machine.Inject_div_by_zero) ] endless in
  (match Interp.Machine.run_main m with
  | _ -> Alcotest.fail "expected the injected trap"
  | exception Trap (Div_by_zero, _) -> ());
  Alcotest.(check int) "trap clock" 1000 (Interp.Machine.clock m)

let test_fault_past_fuel () =
  let m = machine ~fuel:1000 ~faults:[ (1001, Interp.Machine.Inject_div_by_zero) ] endless in
  let out = Interp.Machine.run_main m in
  check_stop "fuel stop, fault never fires" (Interp.Machine.Truncated Fuel) out;
  Alcotest.(check int) "fuel clock" 1001 out.Interp.Machine.clock

let test_fuel_out_at_zero () =
  let out =
    Interp.Machine.run_main
      (machine ~faults:[ (0, Interp.Machine.Inject_fuel_out) ] endless)
  in
  check_stop "fuel stop" (Interp.Machine.Truncated Fuel) out;
  Alcotest.(check int) "before the first instruction" 0 out.Interp.Machine.clock

(* Malformed IR reaching execution, each case behind a branch on main's
   i1 parameter: bb0 computes 1 + 2 and branches to bb1 (the case) or bb2
   (return 0). Creating the machine must not raise; only executing the
   case does. *)
type malformed = Undefined_callee | Builtin_arity | Unknown_global | No_terminator

let malformed_module case =
  let open Ir.Types in
  let fn = Ir.Func.create ~name:"main" ~params:[ ("taken", I1) ] ~ret:(Some I64) in
  let b0 = Ir.Func.add_block fn in
  let b1 = Ir.Func.add_block fn in
  let b2 = Ir.Func.add_block fn in
  let b = Ir.Builder.create fn in
  Ir.Builder.position b b0;
  ignore (Ir.Builder.add b (int_ 1) (int_ 2));
  Ir.Builder.cond_br b (Param 0) b1 b2;
  Ir.Builder.position b b1;
  (match case with
  | Undefined_callee ->
      Ir.Builder.call_unit b "nope" [];
      Ir.Builder.br b b2
  | Builtin_arity ->
      Ir.Builder.call_unit b "print_int" [];
      Ir.Builder.br b b2
  | Unknown_global ->
      ignore (Ir.Builder.load b ~ty:I64 (Global "nowhere"));
      Ir.Builder.br b b2
  | No_terminator -> ());
  Ir.Builder.position b b2;
  Ir.Builder.ret b (Some (int_ 0));
  let m = Ir.Func.create_module () in
  Ir.Func.add_func m fn;
  m

let malformed_cases =
  [
    (Undefined_callee, "call to undefined function @nope", 3);
    (Builtin_arity, "bad builtin call print_int/0", 3);
    (Unknown_global, "unknown global @nowhere", 3);
    (No_terminator, "block bb1 in @main fell through", 2);
  ]

let test_malformed_untaken () =
  List.iter
    (fun (case, msg, _) ->
      let out =
        Interp.Machine.run_main ~args:[ Vbool false ]
          (Interp.Machine.create (malformed_module case))
      in
      check_stop (msg ^ ": completes") Interp.Machine.Completed out;
      Alcotest.(check int) (msg ^ ": clock") 3 out.Interp.Machine.clock)
    malformed_cases

let test_malformed_taken () =
  List.iter
    (fun (case, msg, clock) ->
      let m = Interp.Machine.create (malformed_module case) in
      (match Interp.Machine.run_main ~args:[ Vbool true ] m with
      | _ -> Alcotest.failf "%s: expected a runtime error" msg
      | exception Runtime_error got -> Alcotest.(check string) "error text" msg got);
      Alcotest.(check int) (msg ^ ": clock") clock (Interp.Machine.clock m))
    malformed_cases

(* Heap words the engine allocates per retired instruction on an unhooked,
   default-fuel run, counted as minor + major - promoted so a promoted
   word is not counted twice. *)
let test_alloc_per_instruction () =
  let b = Option.get (Suites.Suite.find "179_art") in
  let m = Frontend.compile_exn b.Suites.Suite.source in
  Cfg.Loop_simplify.run_module m;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let out = Interp.Machine.run_main (Interp.Machine.create m) in
  let per_instr = (words () -. before) /. float_of_int out.Interp.Machine.clock in
  check_stop "179_art completes" Interp.Machine.Completed out;
  if per_instr > 4.0 then
    Alcotest.failf "%.2f words allocated per instruction, ceiling 4" per_instr

let () =
  Alcotest.run "interp"
    [
      ( "scalars",
        [
          Alcotest.test_case "ibinop semantics" `Quick test_ibinop_semantics;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "fcmp nan" `Quick test_fcmp_nan;
          QCheck_alcotest.to_alcotest prop_ibinop_matches_int64;
          QCheck_alcotest.to_alcotest prop_icmp_total_order;
        ] );
      ( "memory",
        [
          Alcotest.test_case "model" `Quick test_memory_model;
          Alcotest.test_case "limit" `Quick test_memory_limit;
          Alcotest.test_case "globals" `Quick test_globals_in_memory;
        ] );
      ( "programs",
        [
          Alcotest.test_case "clock" `Quick test_clock_counts_instructions;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "recursion limit" `Quick test_recursion_limit;
          Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
          Alcotest.test_case "arrcopy/arrfill" `Quick test_arrcopy_arrfill;
          Alcotest.test_case "print builtins" `Quick test_print_builtins;
        ] );
      ( "events",
        [
          Alcotest.test_case "event stream" `Quick test_event_stream;
          Alcotest.test_case "loop exit on return" `Quick test_loop_exit_on_return;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fuel truncation closes events" `Quick
            test_truncation_closes_events;
          Alcotest.test_case "depth truncation closes events" `Quick
            test_depth_truncation_closes_events;
          Alcotest.test_case "program div-by-zero traps" `Quick
            test_program_div_by_zero_traps;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
          Alcotest.test_case "counter accessors" `Quick test_counter_accessors;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deadline poll" `Quick test_deadline_poll;
          Alcotest.test_case "sampler under fuel" `Quick test_sampler_under_fuel;
          Alcotest.test_case "fault at the fuel edge" `Quick test_fault_at_fuel_edge;
          Alcotest.test_case "fault past the fuel" `Quick test_fault_past_fuel;
          Alcotest.test_case "fuel-out fault at 0" `Quick test_fuel_out_at_zero;
          Alcotest.test_case "malformed IR untaken" `Quick test_malformed_untaken;
          Alcotest.test_case "malformed IR taken" `Quick test_malformed_taken;
          Alcotest.test_case "allocation per instruction" `Quick
            test_alloc_per_instruction;
        ] );
    ]
