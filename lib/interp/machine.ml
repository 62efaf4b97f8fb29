(* The IR interpreter — the "run-time component" of the limit study. Executes
   a verified module deterministically, advancing a clock by one per executed
   IR instruction (the paper's dynamic IR instruction count metric, §III-B),
   and reporting instrumentation events through Events.hooks.

   Each function is compiled once per machine, in [create], into closures
   over [rv array] frames: per block, the phis as (predecessor, operand)
   tables, the body as an array of per-instruction closures and the
   terminator as a closure returning the next block. Operands, call
   targets and builtins are resolved at compile time, and hook calls exist
   only where the watch plan marks an instruction. Compilation never
   raises: malformed IR (an unknown callee or global, a builtin called with
   the wrong arity, a block without a terminator) compiles to a closure
   that raises the interpreter error when, and only if, it executes.

   Deviation from the paper noted in DESIGN.md: the paper accumulates
   hard-coded per-basic-block counts; we tick per instruction, which yields
   the same totals with finer-grained intra-iteration time-stamps. A tick is
   one add and one compare against a precomputed next-event clock; fuel,
   fault stamps, samples and deadline polls all wait behind that compare. *)

open Rvalue

(* One live activation: its registers, its arguments, the loop invocations
   it has open (innermost first) and, after a return, the returned value.
   Whole-function execution ([exec_func]) and the guarded runner's
   iteration-range entry ([run_loop_range]) run the same compiled blocks
   against a frame. *)
type frame = {
  regs : rv array;
  args : rv array;
  mutable loops : int list;
  mutable ret : rv option;
}

(* An operand resolved at compile time: a register, an argument, a constant
   (a global's address included) or the error an unknown global raises. *)
type src = Reg of int | Arg of int | Imm of rv | Bad of string

let[@inline] read (fr : frame) = function
  | Reg id -> fr.regs.(id)
  | Arg i -> fr.args.(i)
  | Imm v -> v
  | Bad msg -> raise (Runtime_error msg)

let[@inline] ival fr s = as_int (read fr s)

let[@inline] fval fr s = as_float (read fr s)

(* A block's phi: the incoming (predecessor, operand) table and the hooks
   the watch plan marks on it. *)
type phi = {
  phi_id : int;
  preds : int array;
  srcs : src array;
  on_def : bool;
  uses : int list; (* watched phis this phi reads *)
  on_value : bool; (* a watched header phi: report its value *)
}

type block = {
  phis : phi array;
  staged : rv array; (* one arrival's phi values, written back together *)
  opcs : int array; (* opcode of each body instruction *)
  body : (frame -> unit) array;
  term_opc : int; (* -1 when the block has no terminator to tick *)
  term : frame -> int; (* the next block, or -1 after a return *)
}

type func_plan = {
  fn : Ir.Func.t;
  fname : string;
  li : Cfg.Loopinfo.t;
  watch : Events.watch_plan;
  nregs : int;
  in_loop : bool array array; (* lid -> block -> inside the loop *)
  wants_mem : bool array; (* lid -> the plan kept its memory-event stream *)
  mutable blocks : block array; (* filled once every plan exists *)
}

(* Test-only fault injection: at the first tick whose clock reaches the
   given stamp, the corresponding trap or budget stop fires. Used to prove
   that every error path yields a classified, well-formed result. *)
type fault =
  | Inject_div_by_zero
  | Inject_oob
  | Inject_fuel_out
  | Inject_depth_out

type fault_plan = (int * fault) list

(* A fresh arrival at a loop header from outside the loop, offered to the
   delegate (the guarded parallel runner) before the machine executes the
   loop itself. The register and argument arrays are the live frame state:
   a delegate that declines must leave them untouched. *)
type loop_entry = {
  le_fname : string;
  le_lid : int;
  le_header : int;
  le_pred : int;
  le_regs : Rvalue.rv array;
  le_args : Rvalue.rv array;
}

(* The whole-loop effect a delegate commits in place of serial execution:
   exactly the clock ticks, register updates, memory writes, access counts
   and program output the serial loop would have produced, plus the exit
   edge to resume from. Byte-equivalence with serial execution is the
   delegate's contract, not the machine's. *)
type loop_commit = {
  lc_exit_pred : int;
  lc_exit_target : int;
  lc_clock : int;
  lc_accesses : int;
  lc_regs : (int * Rvalue.rv) list;
  lc_writes : (int * Rvalue.rv) list;
  lc_output : string;
}

type t = {
  modul : Ir.Func.modul;
  plans : (string, func_plan) Hashtbl.t;
  mem : memory;
  mutable hooks : Events.hooks;
  (* Consulted on every fresh loop entry; [None] (the default) means every
     loop executes serially. Only meaningful with unpruned watch plans:
     a commit counts every shard access as both executed and reported. *)
  mutable delegate : (t -> loop_entry -> loop_commit option) option;
  mutable clock : int;
  (* The first clock a tick may not reach on the fast path: the minimum of
     fuel + 1, the next fault stamp + 1, the next sample and the next
     deadline poll. Recomputed by the slow path and by everything that
     moves one of them. *)
  mutable next_event : int;
  fuel : int;
  deadline : float option; (* Unix.gettimeofday stamp for the wall budget *)
  mutable faults : fault_plan; (* sorted by clock, consumed head-first *)
  out : Buffer.t;
  mutable rand_state : int64;
  mutable depth : int;
  max_depth : int;
  (* active loop invocations across the whole call stack, and how many of
     them still want the memory-event stream; on_mem_access is suppressed
     only while every active loop's plan pruned it *)
  mutable active_loops : int;
  mutable mem_watchers : int;
  mutable mem_accesses : int; (* word accesses executed *)
  mutable mem_events : int; (* word accesses reported through hooks *)
  (* Self-profiling state, off by default. [opcounts] is the shared empty
     array until {!enable_opcode_counts}: the hot-path guard is one array
     length read. An armed sampler ([sample_period > 0]) fires [on_sample]
     when the clock reaches [next_sample] — a pure function of the clock,
     so sample placement is deterministic across runs — and costs nothing
     per tick beyond the next-event compare. *)
  mutable opcounts : int array;
  mutable sample_period : int;
  mutable next_sample : int;
  mutable on_sample : int -> unit; (* receives the clock at the sample *)
}

(* Why execution stopped. [Truncated] runs closed every open loop
   invocation and call frame before returning, so the event stream a
   listener saw is well-formed over the executed prefix. *)
type stop_reason = Completed | Truncated of Rvalue.budget_kind

let stop_reason_to_string = function
  | Completed -> "completed"
  | Truncated k -> Printf.sprintf "truncated (%s)" (Rvalue.budget_kind_to_string k)

type outcome = {
  ret : rv option;
  stop : stop_reason;
  clock : int;
  output : string;
  mem_words : int;
  mem_accesses : int;
  mem_events : int;
}

(* ---- the clock ---- *)

let succ_sat n = if n = max_int then n else n + 1

let set_next_event (t : t) =
  let e = succ_sat t.fuel in
  let e = match t.faults with (at, _) :: _ -> min e (succ_sat at) | [] -> e in
  let e = if t.sample_period > 0 then min e t.next_sample else e in
  t.next_event <-
    (match t.deadline with
    | None -> e
    | Some _ -> min e ((t.clock lor 0xffff) + 1) (* the next deadline poll *))

let apply_fault = function
  | Inject_div_by_zero -> trap Div_by_zero "injected division by zero"
  | Inject_oob -> trap Out_of_bounds "injected out-of-bounds access"
  | Inject_fuel_out -> raise (Budget_stop Fuel)
  | Inject_depth_out -> raise (Budget_stop Call_depth)

(* A tick that reached [next_event]: the full check, in order. *)
let slow_tick (t : t) =
  (* faults fire before the instruction is counted, so a stamp-0 fault
     yields a clock-0 outcome: a prefix with no information at all *)
  (match t.faults with
  | (at, f) :: rest when t.clock >= at ->
      t.faults <- rest;
      (* shard workers catch traps and keep using the machine *)
      set_next_event t;
      apply_fault f
  | _ -> ());
  t.clock <- t.clock + 1;
  if t.clock > t.fuel then raise (Budget_stop Fuel);
  if t.sample_period > 0 && t.clock >= t.next_sample then begin
    t.next_sample <- t.clock + t.sample_period;
    t.on_sample t.clock
  end;
  (* The wall budget is real wall-clock time (a stalled or descheduled
     run must still hit it), polled coarsely: a gettimeofday syscall per
     instruction would dominate the interpreter loop. *)
  (if t.clock land 0xffff = 0 then
     match t.deadline with
     | Some d when Unix.gettimeofday () > d -> raise (Budget_stop Wall)
     | _ -> ());
  set_next_event t

let[@inline] tick (t : t) =
  let c = t.clock + 1 in
  if c >= t.next_event then slow_tick t else t.clock <- c

(* Two synthetic opcode slots past the IR constructors: the per-element
   ticks of the arrcopy/arrfill builtins, and clock lumps applied by a
   delegate's loop commit — so the opcode counters partition the clock
   exactly (their sum always equals {!instructions_retired}). *)
let opc_builtin = Ir.Instr.n_opcodes

let opc_committed = Ir.Instr.n_opcodes + 1

let opc_phi = Ir.Instr.opcode (Ir.Instr.Phi [||])

(* Tick for one instruction of opcode [opc] and count it. *)
let[@inline] retire (t : t) opc =
  tick t;
  let oc = t.opcounts in
  if Array.length oc <> 0 then oc.(opc) <- oc.(opc) + 1

let enable_opcode_counts (t : t) =
  if Array.length t.opcounts = 0 then
    t.opcounts <- Array.make (Ir.Instr.n_opcodes + 2) 0

let opcode_counts (t : t) : (string * int) list =
  if Array.length t.opcounts = 0 then []
  else
    List.filter
      (fun (_, v) -> v > 0)
      (List.init (Array.length t.opcounts) (fun i ->
           ( (if i = opc_builtin then "builtin_mem"
              else if i = opc_committed then "committed"
              else Ir.Instr.opcode_name i),
             t.opcounts.(i) )))

let set_sampler (t : t) ~period f =
  if period <= 0 then invalid_arg "Machine.set_sampler: period must be positive";
  t.sample_period <- period;
  t.next_sample <- t.clock + period;
  t.on_sample <- f;
  set_next_event t

let clear_sampler (t : t) =
  t.sample_period <- 0;
  t.on_sample <- ignore;
  set_next_event t

let clock (t : t) = t.clock

(* Run counters, readable on every exit path (the outcome record only
   exists when the run ends cleanly). The clock advances one per executed
   instruction, so it doubles as the instructions-retired tally. *)
let instructions_retired (t : t) = t.clock

let mem_accesses (t : t) = t.mem_accesses

let mem_events (t : t) = t.mem_events

let mem_events_pruned (t : t) = t.mem_accesses - t.mem_events

let fuel (t : t) = t.fuel

let set_hooks (t : t) hooks = t.hooks <- hooks

let set_delegate (t : t) d = t.delegate <- d

(* Raw word access, no tick and no access counting: the guarded runner's
   shard workers use these to snapshot final written values and to undo a
   shard's writes before reporting, and the parent uses them to apply a
   committed write set. Bounds-checked like any program access. *)
let read_word (t : t) addr = Rvalue.load t.mem addr

let write_word (t : t) addr v = Rvalue.store t.mem addr v

(* Program-output splicing for shard isolation: a worker records the length
   before running its iteration range, ships the delta, and truncates back
   so its buffer never leaks shard output into a later task. *)
let output_length (t : t) = Buffer.length t.out

let output_since (t : t) pos = Buffer.sub t.out pos (Buffer.length t.out - pos)

let truncate_output (t : t) pos = Buffer.truncate t.out pos

(* Evaluate an instruction operand against an explicit frame (the guarded
   runner resolves loop-entry values and symbolic trip bounds this way). *)
let eval_operand (t : t) ~(regs : rv array) ~(args : rv array)
    (v : Ir.Types.value) : rv =
  match v with
  | Ir.Types.Const (Ir.Types.Cint i) -> Vint i
  | Ir.Types.Const (Ir.Types.Cfloat f) -> Vfloat f
  | Ir.Types.Const (Ir.Types.Cbool b) -> Vbool b
  | Ir.Types.Reg id -> regs.(id)
  | Ir.Types.Param i -> args.(i)
  | Ir.Types.Global g -> Vint (Int64.of_int (Rvalue.global_addr t.mem g))

let plan t fname =
  match Hashtbl.find_opt t.plans fname with
  | Some p -> p
  | None -> error "call to undefined function @%s" fname

let loopinfo t fname = (plan t fname).li

(* Report a word access to the listener, unless every active loop's plan
   pruned the memory stream (statically proven RAW-free). *)
let mem_access (t : t) ~addr ~is_write =
  t.mem_accesses <- t.mem_accesses + 1;
  if t.mem_watchers > 0 || t.active_loops = 0 then begin
    t.mem_events <- t.mem_events + 1;
    t.hooks.Events.on_mem_access ~addr ~is_write ~clock:t.clock
  end

(* ---- scalar operations ---- *)

let exec_ibinop op a b =
  let open Ir.Instr in
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Sdiv ->
      if b = 0L then trap Div_by_zero "division by zero"
      else if b = -1L then Int64.neg a
      else Int64.div a b
  | Srem ->
      if b = 0L then trap Div_by_zero "remainder by zero"
      else if b = -1L then 0L
      else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Ashr -> Int64.shift_right a (Int64.to_int b land 63)
  | Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)

let exec_fbinop op a b =
  let open Ir.Instr in
  match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b

let exec_icmp op (a : rv) (b : rv) =
  let open Ir.Instr in
  match (a, b) with
  | Vint x, Vint y -> (
      match op with
      | Ieq -> x = y
      | Ine -> x <> y
      | Islt -> x < y
      | Isle -> x <= y
      | Isgt -> x > y
      | Isge -> x >= y)
  | Vbool x, Vbool y -> (
      match op with
      | Ieq -> x = y
      | Ine -> x <> y
      | Islt -> (not x) && y
      | Isle -> (not x) || y
      | Isgt -> x && not y
      | Isge -> x || not y)
  | _ -> error "icmp on mixed types (%s, %s)" (rv_to_string a) (rv_to_string b)

let exec_fcmp op a b =
  let open Ir.Instr in
  match op with
  | Feq -> a = b
  | Fne -> a <> b
  | Flt -> a < b
  | Fle -> a <= b
  | Fgt -> a > b
  | Fge -> a >= b

let vtrue = Vbool true

let vfalse = Vbool false

(* ---- loop events ---- *)

(* [t.mem_watchers] counts the open loops whose plan kept the memory-event
   stream, machine-wide, so pruned inner loops still report to a tracked
   outer loop of any enclosing invocation. *)
let exit_loop t (p : func_plan) lid =
  t.active_loops <- t.active_loops - 1;
  if p.wants_mem.(lid) then t.mem_watchers <- t.mem_watchers - 1;
  t.hooks.Events.on_loop_exit ~lid ~clock:t.clock

let rec exit_loops t p (fr : frame) =
  match fr.loops with
  | [] -> ()
  | lid :: rest ->
      exit_loop t p lid;
      fr.loops <- rest;
      exit_loops t p fr

(* Close the open loops the edge's target lies outside of. *)
let rec leave_loops t (p : func_plan) (fr : frame) to_ =
  match fr.loops with
  | lid :: rest when not p.in_loop.(lid).(to_) ->
      exit_loop t p lid;
      fr.loops <- rest;
      leave_loops t p fr to_
  | _ -> ()

(* Loop enter/iter/exit events for the CFG edge [from_] -> [to_]
   ([from_ < 0] on a frame's first block). *)
let take_edge t (p : func_plan) (fr : frame) ~from_ ~to_ =
  if from_ >= 0 then leave_loops t p fr to_;
  let lid = p.li.Cfg.Loopinfo.header_loop.(to_) in
  if lid >= 0 then
    match fr.loops with
    | top :: _ when top = lid -> t.hooks.Events.on_loop_iter ~lid ~clock:t.clock
    | _ ->
        t.active_loops <- t.active_loops + 1;
        if p.wants_mem.(lid) then t.mem_watchers <- t.mem_watchers + 1;
        fr.loops <- lid :: fr.loops;
        t.hooks.Events.on_loop_enter ~lid ~clock:t.clock

let rec notify_uses t = function
  | [] -> ()
  | phi_id :: rest ->
      t.hooks.Events.on_watched_use ~phi_id ~clock:t.clock;
      notify_uses t rest

(* ---- block execution ---- *)

(* Phis evaluate in parallel with respect to the incoming edge, each taking
   the last incoming entry that matches it. [seed] overrides chosen values
   by phi id — the guarded runner starts a shard mid-iteration-space by
   seeding the header phis of its first arrival. *)
let run_phis t (p : func_plan) (fr : frame) (blk : block) ~pred ~seed =
  let phis = blk.phis and staged = blk.staged in
  for k = 0 to Array.length phis - 1 do
    let ph = phis.(k) in
    retire t opc_phi;
    if ph.on_def then t.hooks.Events.on_watched_def ~instr_id:ph.phi_id ~clock:t.clock;
    notify_uses t ph.uses;
    let seeded = match seed with [] -> None | _ -> List.assoc_opt ph.phi_id seed in
    let v =
      match seeded with
      | Some v -> v
      | None ->
          let i = ref (Array.length ph.preds - 1) in
          while !i >= 0 && ph.preds.(!i) <> pred do
            decr i
          done;
          if !i < 0 then
            error "phi %%%d in @%s has no entry for predecessor bb%d" ph.phi_id
              p.fname pred;
          read fr ph.srcs.(!i)
    in
    if ph.on_value then
      t.hooks.Events.on_header_phi ~phi_id:ph.phi_id ~value:v ~clock:t.clock;
    staged.(k) <- v
  done;
  for k = 0 to Array.length phis - 1 do
    fr.regs.(phis.(k).phi_id) <- staged.(k)
  done

(* Phis, body and terminator of one block; the next block, or -1 after a
   return. *)
let run_block t p (fr : frame) (blk : block) ~pred ~seed =
  if Array.length blk.phis <> 0 then run_phis t p fr blk ~pred ~seed;
  let body = blk.body and opcs = blk.opcs in
  for i = 0 to Array.length body - 1 do
    retire t (Array.unsafe_get opcs i);
    (Array.unsafe_get body i) fr
  done;
  if blk.term_opc >= 0 then retire t blk.term_opc;
  blk.term fr

(* A fresh arrival at a loop header from outside the loop is first offered
   to the delegate; a commit replaces the whole invocation (ticks,
   registers, memory, output) and resumes at the exit edge, so no loop
   events fire for it. A decline falls through to the ordinary serial path
   with the frame untouched. *)
let delegated t p fr ~from_ b =
  match t.delegate with
  | Some d when from_ >= 0 ->
      let lid = p.li.Cfg.Loopinfo.header_loop.(b) in
      if lid >= 0 && not p.in_loop.(lid).(from_) then
        d t
          {
            le_fname = p.fname;
            le_lid = lid;
            le_header = b;
            le_pred = from_;
            le_regs = fr.regs;
            le_args = fr.args;
          }
      else None
  | _ -> None

(* Apply a delegate's whole-loop commit to the live frame. The runner
   pre-checks remaining fuel, so the guard here only defends the budget
   invariant (a commit must never push the clock past the fuel). The lump
   moves the next sample with it: samples keep counting ticks. *)
let apply_commit t (c : loop_commit) (regs : rv array) =
  if c.lc_clock > t.fuel - t.clock then raise (Budget_stop Fuel);
  t.clock <- t.clock + c.lc_clock;
  t.next_sample <- t.next_sample + c.lc_clock;
  set_next_event t;
  if Array.length t.opcounts <> 0 then
    t.opcounts.(opc_committed) <- t.opcounts.(opc_committed) + c.lc_clock;
  List.iter (fun (id, v) -> regs.(id) <- v) c.lc_regs;
  List.iter (fun (addr, v) -> Rvalue.store t.mem addr v) c.lc_writes;
  t.mem_accesses <- t.mem_accesses + c.lc_accesses;
  t.mem_events <- t.mem_events + c.lc_accesses;
  Buffer.add_string t.out c.lc_output

let exec_func t (p : func_plan) (args : rv array) : rv option =
  (* Checked before the frame opens: no enter event has fired yet, so the
     unwinding caller frames are the only ones that need closing. *)
  if t.depth >= t.max_depth then raise (Budget_stop Call_depth);
  t.depth <- t.depth + 1;
  t.hooks.Events.on_call_enter ~fname:p.fname ~clock:t.clock;
  let fr = { regs = Array.make p.nregs (Vint 0L); args; loops = []; ret = None } in
  let cur = ref p.fn.Ir.Func.entry in
  let from_ = ref (-1) in
  (try
     while !cur >= 0 do
       let b = !cur in
       match delegated t p fr ~from_:!from_ b with
       | Some c ->
           apply_commit t c fr.regs;
           from_ := c.lc_exit_pred;
           cur := c.lc_exit_target
       | None ->
           take_edge t p fr ~from_:!from_ ~to_:b;
           let next = run_block t p fr p.blocks.(b) ~pred:!from_ ~seed:[] in
           if next < 0 then exit_loops t p fr;
           from_ := b;
           cur := next
     done
   with Budget_stop _ as stop ->
     (* A budget ran out mid-frame (here or in a callee): close this frame's
        open loop invocations and its enter/exit pair so every listener sees
        a well-formed stream over the executed prefix, then keep unwinding. *)
     exit_loops t p fr;
     t.hooks.Events.on_call_exit ~fname:p.fname ~clock:t.clock;
     t.depth <- t.depth - 1;
     raise stop);
  t.hooks.Events.on_call_exit ~fname:p.fname ~clock:t.clock;
  t.depth <- t.depth - 1;
  fr.ret

(* ---- compilation ---- *)

let raiser msg _ = raise (Runtime_error msg)

let operand t (v : Ir.Types.value) : src =
  match v with
  | Ir.Types.Reg id -> Reg id
  | Ir.Types.Param i -> Arg i
  | Ir.Types.Const _ | Ir.Types.Global _ -> (
      match eval_operand t ~regs:[||] ~args:[||] v with
      | c -> Imm c
      | exception Runtime_error msg -> Bad msg)

let lcg_next s = Int64.add (Int64.mul s 6364136223846793005L) 1442695040888963407L

(* A builtin's effect on its evaluated arguments, chosen by name and arity
   once, at compile time. *)
let builtin_effect t name arity : rv array -> rv option =
  let float1 f a = Some (Vfloat (f (as_float a.(0)))) in
  let word v = Int64.to_int (as_int v) in
  match (name, arity) with
  | "print_int", 1 ->
      fun a ->
        Buffer.add_string t.out (Int64.to_string (as_int a.(0)));
        Buffer.add_char t.out '\n';
        None
  | "print_float", 1 ->
      fun a ->
        Buffer.add_string t.out (Printf.sprintf "%.6g" (as_float a.(0)));
        Buffer.add_char t.out '\n';
        None
  | "print_char", 1 ->
      fun a ->
        Buffer.add_char t.out (Char.chr (word a.(0) land 0xff));
        None
  | "rand", 0 ->
      fun _ ->
        t.rand_state <- lcg_next t.rand_state;
        Some (Vint (Int64.logand (Int64.shift_right_logical t.rand_state 17) 0x3fffffffL))
  | "srand", 1 ->
      fun a ->
        t.rand_state <- Int64.logxor (as_int a.(0)) 88172645463325252L;
        None
  | "sqrt", 1 -> float1 sqrt
  | "sin", 1 -> float1 sin
  | "cos", 1 -> float1 cos
  | "exp", 1 -> float1 exp
  | "log", 1 -> float1 log
  | "pow", 2 -> fun a -> Some (Vfloat (Float.pow (as_float a.(0)) (as_float a.(1))))
  | "arrcopy", 3 ->
      fun a ->
        let dst = word a.(0) and src = word a.(1) and n = word a.(2) in
        for i = 0 to n - 1 do
          retire t opc_builtin;
          mem_access t ~addr:(src + i) ~is_write:false;
          mem_access t ~addr:(dst + i) ~is_write:true;
          Rvalue.store t.mem (dst + i) (Rvalue.load t.mem (src + i))
        done;
        Some (Vint (Int64.of_int n))
  | "arrfill", 3 ->
      fun a ->
        let dst = word a.(0) and n = word a.(2) in
        for i = 0 to n - 1 do
          retire t opc_builtin;
          mem_access t ~addr:(dst + i) ~is_write:true;
          Rvalue.store t.mem (dst + i) a.(1)
        done;
        Some (Vint (Int64.of_int n))
  | _ -> fun _ -> error "bad builtin call %s/%d" name arity

(* A builtin call: the call event, then the effect. The declared memory
   effect is enforced — the dependence analysis trusts [Ir.Builtins.mem],
   so a builtin that touches tracked memory without declaring it would
   silently break doall proofs. *)
let builtin t name arity : rv array -> rv option =
  let effect = builtin_effect t name arity in
  let no_mem =
    match Ir.Builtins.find name with
    | Some { Ir.Builtins.mem = Ir.Builtins.No_mem; _ } -> true
    | _ -> false
  in
  fun args ->
    t.hooks.Events.on_builtin_call ~name ~clock:t.clock;
    let before = t.mem_accesses in
    let result = effect args in
    if no_mem && t.mem_accesses > before then
      error "builtin %s declared no-mem but performed %d memory accesses" name
        (t.mem_accesses - before);
    result

(* A call instruction: the arguments left to right, then the callee bound
   at compile time — a builtin, a user function's plan, or the
   undefined-callee error. *)
let compile_call t id ~has_value callee cargs : frame -> unit =
  let srcs = Array.of_list (List.map (operand t) cargs) in
  let callee_fn : rv array -> rv option =
    if Ir.Builtins.is_builtin callee then builtin t callee (Array.length srcs)
    else
      match Hashtbl.find_opt t.plans callee with
      | Some cp -> exec_func t cp
      | None -> fun _ -> error "call to undefined function @%s" callee
  in
  let call fr =
    let args = Array.make (Array.length srcs) (Vint 0L) in
    for i = 0 to Array.length srcs - 1 do
      args.(i) <- read fr srcs.(i)
    done;
    callee_fn args
  in
  if has_value then fun fr ->
    match call fr with
    | Some v -> fr.regs.(id) <- v
    | None -> error "void result from @%s used as a value" callee
  else fun fr -> ignore (call fr)

let compile_instr t id (kind : Ir.Instr.kind) ~has_value : frame -> unit =
  let open Ir.Instr in
  let get = operand t in
  match kind with
  | Ibinop (op, a, b) -> (
      let a = get a and b = get b in
      match op with
      | Add -> fun fr -> fr.regs.(id) <- Vint (Int64.add (ival fr a) (ival fr b))
      | Sub -> fun fr -> fr.regs.(id) <- Vint (Int64.sub (ival fr a) (ival fr b))
      | Mul -> fun fr -> fr.regs.(id) <- Vint (Int64.mul (ival fr a) (ival fr b))
      | _ -> fun fr -> fr.regs.(id) <- Vint (exec_ibinop op (ival fr a) (ival fr b)))
  | Fbinop (op, a, b) -> (
      let a = get a and b = get b in
      match op with
      | Fadd -> fun fr -> fr.regs.(id) <- Vfloat (fval fr a +. fval fr b)
      | Fsub -> fun fr -> fr.regs.(id) <- Vfloat (fval fr a -. fval fr b)
      | Fmul -> fun fr -> fr.regs.(id) <- Vfloat (fval fr a *. fval fr b)
      | Fdiv -> fun fr -> fr.regs.(id) <- Vfloat (fval fr a /. fval fr b))
  | Icmp (op, a, b) ->
      let a = get a and b = get b in
      fun fr ->
        fr.regs.(id) <- (if exec_icmp op (read fr a) (read fr b) then vtrue else vfalse)
  | Fcmp (op, a, b) ->
      let a = get a and b = get b in
      fun fr ->
        fr.regs.(id) <- (if exec_fcmp op (fval fr a) (fval fr b) then vtrue else vfalse)
  | Select (c, x, y) ->
      let c = get c and x = get x and y = get y in
      fun fr -> fr.regs.(id) <- (if as_bool (read fr c) then read fr x else read fr y)
  | Si_to_fp x ->
      let x = get x in
      fun fr -> fr.regs.(id) <- Vfloat (Int64.to_float (ival fr x))
  | Fp_to_si x ->
      let x = get x in
      fun fr -> fr.regs.(id) <- Vint (Int64.of_float (fval fr x))
  | Load a ->
      let a = get a in
      fun fr ->
        let addr = Int64.to_int (ival fr a) in
        mem_access t ~addr ~is_write:false;
        fr.regs.(id) <- Rvalue.load t.mem addr
  | Store (a, v) ->
      let a = get a and v = get v in
      fun fr ->
        let addr = Int64.to_int (ival fr a) in
        let v = read fr v in
        mem_access t ~addr ~is_write:true;
        Rvalue.store t.mem addr v
  | Alloc n ->
      let n = get n in
      fun fr ->
        let size = Int64.to_int (ival fr n) in
        fr.regs.(id) <- Vint (Int64.of_int (Rvalue.alloc t.mem size))
  | Call (callee, cargs) -> compile_call t id ~has_value callee cargs
  (* phis and terminators never reach a block body *)
  | Phi _ | Br _ | Cond_br _ | Ret _ | Unreachable -> raiser "not a body instruction"

let compile_term t fname (kind : Ir.Instr.kind) : frame -> int =
  match kind with
  | Ir.Instr.Br l -> fun _ -> l
  | Ir.Instr.Cond_br (c, l1, l2) ->
      let c = operand t c in
      fun fr -> if as_bool (read fr c) then l1 else l2
  | Ir.Instr.Ret None -> fun _ -> -1
  | Ir.Instr.Ret (Some v) ->
      let v = operand t v in
      fun fr ->
        fr.ret <- Some (read fr v);
        -1
  | _ -> raiser (Printf.sprintf "reached 'unreachable' in @%s" fname)

(* The def/use hooks the watch plan marks on instruction [id], fired after
   its tick and before it executes; unmarked instructions get no wrapper. *)
let hooked t (w : Events.watch_plan) id (f : frame -> 'a) : frame -> 'a =
  let def = w.Events.defs.(id) and uses = w.Events.phi_uses.(id) in
  if (not def) && uses = [] then f
  else fun fr ->
    if def then t.hooks.Events.on_watched_def ~instr_id:id ~clock:t.clock;
    notify_uses t uses;
    f fr

let compile_block t (p : func_plan) b : block =
  let fn = p.fn and w = p.watch in
  let kind id = Ir.Func.kind fn id in
  let phis =
    List.filter_map
      (fun id ->
        match kind id with
        | Ir.Instr.Phi incoming ->
            Some
              {
                phi_id = id;
                preds = Array.map fst incoming;
                srcs = Array.map (fun (_, v) -> operand t v) incoming;
                on_def = w.Events.defs.(id);
                uses = w.Events.phi_uses.(id);
                on_value = w.Events.phis.(id);
              }
        | _ -> None)
      (Ir.Func.block fn b).Ir.Func.instr_ids
  in
  (* the body runs up to the first terminator; anything after it is dead *)
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | id :: rest ->
        if Ir.Instr.is_terminator (kind id) then (List.rev acc, Some id)
        else split (id :: acc) rest
  in
  let body, term = split [] (Ir.Func.non_phi_instrs fn b) in
  let term_opc, term =
    match term with
    | Some id ->
        (Ir.Instr.opcode (kind id), hooked t w id (compile_term t p.fname (kind id)))
    | None -> (-1, raiser (Printf.sprintf "block bb%d in @%s fell through" b p.fname))
  in
  let phis = Array.of_list phis in
  {
    phis;
    staged = Array.make (Array.length phis) (Vint 0L);
    opcs = Array.of_list (List.map (fun id -> Ir.Instr.opcode (kind id)) body);
    body =
      Array.of_list
        (List.map
           (fun id ->
             let ins = Ir.Func.instr fn id in
             hooked t w id
               (compile_instr t id ins.Ir.Instr.kind ~has_value:(ins.Ir.Instr.ty <> None)))
           body);
    term_opc;
    term;
  }

let make_plan ?watch (fn : Ir.Func.t) : func_plan =
  let cfg = Cfg.Graph.build fn in
  let dom = Cfg.Dom.compute cfg in
  let li = Cfg.Loopinfo.compute cfg dom in
  let nb = Ir.Func.num_blocks fn in
  let watch =
    match watch with Some w -> w | None -> Events.empty_watch_plan fn
  in
  let in_loop =
    Array.map
      (fun (l : Cfg.Loopinfo.loop) ->
        let inside = Array.make nb false in
        Cfg.Loopinfo.Int_set.iter (fun b -> inside.(b) <- true) l.Cfg.Loopinfo.body;
        inside)
      li.Cfg.Loopinfo.loops
  in
  let mem_lids = watch.Events.mem_lids in
  {
    fn;
    fname = fn.Ir.Func.fname;
    li;
    watch;
    nregs = max 1 (Ir.Func.num_instrs fn);
    in_loop;
    wants_mem =
      Array.init (Array.length in_loop) (fun lid ->
          lid >= Array.length mem_lids || mem_lids.(lid));
    blocks = [||];
  }

let create ?(hooks = Events.no_hooks) ?(fuel = 2_000_000_000)
    ?(mem_limit = 1 lsl 26) ?(max_depth = 10_000) ?deadline
    ?(faults : fault_plan = [])
    ?(watch : (string -> Events.watch_plan option) option)
    (modul : Ir.Func.modul) : t =
  let t =
    {
      modul;
      plans = Hashtbl.create 16;
      mem = Rvalue.create ~limit:mem_limit modul.Ir.Func.globals;
      hooks;
      delegate = None;
      clock = 0;
      next_event = 0;
      fuel;
      deadline;
      faults = List.sort (fun (a, _) (b, _) -> compare a b) faults;
      out = Buffer.create 256;
      rand_state = 88172645463325252L;
      depth = 0;
      max_depth;
      active_loops = 0;
      mem_watchers = 0;
      mem_accesses = 0;
      mem_events = 0;
      opcounts = [||];
      sample_period = 0;
      next_sample = 0;
      on_sample = ignore;
    }
  in
  List.iter
    (fun fn ->
      let w =
        match watch with Some f -> f fn.Ir.Func.fname | None -> None
      in
      Hashtbl.replace t.plans fn.Ir.Func.fname (make_plan ?watch:w fn))
    modul.Ir.Func.funcs;
  (* every plan exists before any is compiled: calls bind their callee's *)
  Hashtbl.iter
    (fun _ p -> p.blocks <- Array.init (Ir.Func.num_blocks p.fn) (compile_block t p))
    t.plans;
  set_next_event t;
  t

(* ---- iteration-range execution (the guarded runner's shard entry) ---- *)

type range_result = {
  rr_iters : int;  (** completed loop bodies *)
  rr_exit : (int * int) option;
      (** [Some (pred, target)] when the loop exited on its own; [None]
          when [max_iters] bodies completed and the range was cut *)
}

(* Execute up to [max_iters] bodies of the loop headed at [header] against
   an explicit frame, starting as if arriving from [pred] with the header
   phis of the first arrival overridden by [seed]. Stops *before* the
   arrival that would begin body [max_iters + 1] — that arrival's phi
   evaluations belong to the next shard, whose seed reproduces them. Used
   by shard workers on a forked image: loop events fire as usual, and any
   trap or budget stop unwinds with the loop bookkeeping rebalanced. *)
let run_loop_range t ~fname ~(regs : rv array) ~(args : rv array) ~header
    ~pred ~seed ~max_iters : range_result =
  let p = plan t fname in
  let lid =
    match Cfg.Loopinfo.loop_of_header p.li header with
    | Some l -> l
    | None -> error "run_loop_range: bb%d in @%s is not a loop header" header fname
  in
  let fr = { regs; args; loops = []; ret = None } in
  let cur = ref header in
  let from_ = ref pred in
  let arrivals = ref 0 in
  let result = ref None in
  (try
     while Option.is_none !result do
       let b = !cur in
       if b = header && !arrivals >= max_iters then
         result := Some { rr_iters = !arrivals; rr_exit = None }
       else begin
         take_edge t p fr ~from_:!from_ ~to_:b;
         let sd =
           if b = header then begin
             incr arrivals;
             if !arrivals = 1 then seed else []
           end
           else []
         in
         let next = run_block t p fr p.blocks.(b) ~pred:!from_ ~seed:sd in
         if next < 0 then
           error "return while executing loop bb%d of @%s as a range" header fname
         else if p.in_loop.(lid).(next) then begin
           from_ := b;
           cur := next
         end
         else
           result :=
             Some { rr_iters = max 0 (!arrivals - 1); rr_exit = Some (b, next) }
       end
     done
   with e ->
     exit_loops t p fr;
     raise e);
  exit_loops t p fr;
  Option.get !result

let run_main ?(args = []) t : outcome =
  (match Ir.Func.find_func t.modul "main" with
  | None -> error "module has no @main function"
  | Some _ -> ());
  let ret, stop =
    match exec_func t (plan t "main") (Array.of_list args) with
    | r -> (r, Completed)
    | exception Budget_stop k -> (None, Truncated k)
  in
  {
    ret;
    stop;
    clock = t.clock;
    output = Buffer.contents t.out;
    mem_words = Rvalue.words_in_use t.mem;
    mem_accesses = t.mem_accesses;
    mem_events = t.mem_events;
  }
