(* The IR interpreter — the "run-time component" of the limit study. Executes
   a verified module deterministically, advancing a clock by one per executed
   IR instruction (the paper's dynamic IR instruction count metric, §III-B),
   and reporting instrumentation events through Events.hooks.

   Each function is compiled once per machine, in [create], into closures
   over a typed register slab: per block, the phis as (predecessor, slot)
   tables, the body as an array of per-instruction closures and the
   terminator as a closure returning the next block. An activation's slab
   is one [Bytes] with 8 bytes per slot: the instruction results, then the
   parameters, a return slot and the function's constants. An i64 is stored
   as itself, an f64 as its bit pattern and an i1 as 0 or 1; each closure is
   compiled for its own opcode and operand types, so it reads and writes
   slots without boxing. A value is boxed only where it leaves the engine:
   hook and builtin arguments, the delegate boundary, raw word access,
   commits and the return value of main. Operands, call targets and
   builtins are resolved at compile time, and hook calls exist only where
   the watch plan marks an instruction. Compilation never raises: malformed
   IR (an unknown callee or global, a builtin called with the wrong arity, a
   block without a terminator) compiles to a closure that raises the
   interpreter error when, and only if, it executes.

   Deviation from the paper noted in DESIGN.md: the paper accumulates
   hard-coded per-basic-block counts; we tick per instruction, which yields
   the same totals with finer-grained intra-iteration time-stamps. A tick is
   one add and one compare against a precomputed next-event clock; fuel,
   fault stamps, samples and deadline polls all wait behind that compare. *)

open Rvalue

(* One live activation: its function, its slab, the loop invocations it
   has open (innermost first) and whether a return wrote the return slot.
   Whole-function execution ([exec_func]) and the guarded runner's
   iteration-range entry ([run_loop_range]) run the same compiled blocks
   against a frame. *)
type frame = {
  plan : func_plan;
  slab : Bytes.t;
  mutable loops : int list;
  mutable returned : bool;
}

(* A block's phi: the incoming (predecessor, slot) table and the hooks the
   watch plan marks on it. Slots are byte offsets into the slab. *)
and phi = {
  phi_id : int;
  phi_ty : Ir.Types.ty;
  preds : int array;
  srcs : int array; (* -1: an unknown global, raising [errs.(i)] *)
  errs : string array;
  on_def : bool;
  uses : int list; (* watched phis this phi reads *)
  on_value : bool; (* a watched header phi: report its value *)
}

and block = {
  phis : phi array;
  staged : Bytes.t; (* one arrival's phi values, written back together *)
  opcs : int array; (* opcode of each body instruction *)
  body : (frame -> unit) array;
  term_opc : int; (* -1 when the block has no terminator to tick *)
  term : frame -> int; (* the next block, or -1 after a return *)
}

and func_plan = {
  fn : Ir.Func.t;
  fname : string;
  li : Cfg.Loopinfo.t;
  watch : Events.watch_plan;
  nparams : int;
  param_base : int; (* slot of parameter 0; instruction [id]'s slot is [id] *)
  ret_off : int; (* byte offset of the return slot *)
  const_base : int; (* slot of the first constant *)
  consts : (int64, int) Hashtbl.t; (* constant bits -> byte offset *)
  mutable template : Bytes.t; (* a fresh slab: zeros, constants filled *)
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
   loop itself. The frame is the live activation: a delegate that declines
   must leave it untouched. *)
type loop_entry = {
  le_fname : string;
  le_lid : int;
  le_header : int;
  le_pred : int;
  le_frame : frame;
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
  lc_writes : (int * Rvalue.rv array) list;
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

(* ---- slots and memory words ----

   Defined here rather than in Rvalue: without cross-module inlining an
   int64 passed to or returned from another compilation unit is boxed. *)

let[@inline] get s o = Bytes.get_int64_le s o

let[@inline] set s o x = Bytes.set_int64_le s o x

let[@inline] getf s o = Int64.float_of_bits (Bytes.get_int64_le s o)

let[@inline] setf s o x = Bytes.set_int64_le s o (Int64.bits_of_float x)

let[@inline] of_bool c = if c then 1L else 0L

let box (ty : Ir.Types.ty) bits : rv =
  match ty with
  | Ir.Types.I64 -> Vint bits
  | Ir.Types.F64 -> Vfloat (Int64.float_of_bits bits)
  | Ir.Types.I1 -> Vbool (bits <> 0L)

(* A guest word as a host int, for addresses and the arrcopy/arrfill
   words. Int64.to_int drops bit 63, which would alias a word near
   Int64.min_int onto a small address. A word outside the host range
   saturates instead: every address check rejects min_int and max_int, and
   arrcopy/arrfill read them as an empty or an unbounded count. *)
let[@inline] host_word (x : int64) =
  if x > 4611686018427387903L then max_int
  else if x < -4611686018427387904L then min_int
  else Int64.to_int x

let oob_word x = trap Out_of_bounds "memory access out of bounds at address %Ld" x

(* The payload of word [a], the host form of guest address [x],
   bounds-checked. *)
let[@inline] word_bits (mem : memory) a x =
  if a <= 0 || a >= mem.brk then oob_word x;
  Bytes.get_int64_le mem.data (a lsl 3)

let wrong_tag mem a what = error "expected %s, got %s" what (rv_to_string (load mem a))

(* Typed loads check the word's tag. A never-written word (the int 0)
   reads as 0.0 through a float load: its payload is +0.0's bit pattern. *)
let[@inline] load_int (mem : memory) a x =
  let bits = word_bits mem a x in
  if Bytes.unsafe_get mem.tags a <> tag_int then wrong_tag mem a "an int";
  bits

let[@inline] load_float (mem : memory) a x =
  let bits = word_bits mem a x in
  let tag = Bytes.unsafe_get mem.tags a in
  if tag <> tag_float && (tag <> tag_int || bits <> 0L) then wrong_tag mem a "a float";
  bits

let[@inline] load_bool (mem : memory) a x =
  let bits = word_bits mem a x in
  if Bytes.unsafe_get mem.tags a <> tag_bool then wrong_tag mem a "a bool";
  bits

let[@inline] store_word (mem : memory) a x tag bits =
  if a <= 0 || a >= mem.brk then oob_word x;
  Bytes.unsafe_set mem.tags a tag;
  Bytes.set_int64_le mem.data (a lsl 3) bits

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
   delegate's loop commit — so the opcode counters partition the clock,
   bar the extra tick a fuel stop counts (see enable_opcode_counts). *)
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
   shard workers use these to apply earlier rounds' writes to their
   snapshot and to read back the final values of the words they wrote.
   Bounds-checked like any program access. *)
let read_word (t : t) addr = Rvalue.load t.mem addr

let write_word (t : t) addr v = Rvalue.store t.mem addr v

let mem_words (t : t) = Rvalue.words_in_use t.mem

(* Program-output splicing for shard isolation: a worker records the length
   before running its iteration range and ships the delta. *)
let output_length (t : t) = Buffer.length t.out

let output_since (t : t) pos = Buffer.sub t.out pos (Buffer.length t.out - pos)

(* ---- operands ---- *)

let ty_of (p : func_plan) v =
  match Ir.Func.value_ty p.fn v with Some ty -> ty | None -> Ir.Types.I64

(* The byte offset of a register or parameter slot. *)
let reg_off (p : func_plan) (v : Ir.Types.value) =
  match v with
  | Ir.Types.Param i when i < 0 || i >= p.nparams ->
      error "no parameter %d in @%s" i p.fname
  | Ir.Types.Param i -> 8 * (p.param_base + i)
  | Ir.Types.Reg id -> 8 * id
  | Ir.Types.Const _ | Ir.Types.Global _ -> invalid_arg "Machine.reg_off"

(* The byte offset of an operand's slot, at compile time: constants (a
   global's address included) get one slot per distinct bit pattern. An
   unknown global raises its Runtime_error here; the instruction then
   compiles to a raiser with that text. *)
let off (t : t) (p : func_plan) (v : Ir.Types.value) =
  let const bits =
    match Hashtbl.find_opt p.consts bits with
    | Some o -> o
    | None ->
        let o = 8 * (p.const_base + Hashtbl.length p.consts) in
        Hashtbl.add p.consts bits o;
        o
  in
  match v with
  | Ir.Types.Reg _ | Ir.Types.Param _ -> reg_off p v
  | Ir.Types.Const c -> const (Rvalue.bits_of (Rvalue.of_const c))
  | Ir.Types.Global g -> const (Int64.of_int (Rvalue.global_addr t.mem g))

(* Evaluate an instruction operand against a live frame (the guarded
   runner resolves loop-entry values and symbolic trip bounds this way). *)
let eval_operand (t : t) (fr : frame) (v : Ir.Types.value) : rv =
  match v with
  | Ir.Types.Const c -> Rvalue.of_const c
  | Ir.Types.Global g -> Vint (Int64.of_int (Rvalue.global_addr t.mem g))
  | Ir.Types.Reg _ | Ir.Types.Param _ ->
      box (ty_of fr.plan v) (get fr.slab (reg_off fr.plan v))

let frame_reg (fr : frame) id = box (ty_of fr.plan (Ir.Types.Reg id)) (get fr.slab (8 * id))

let copy_frame (fr : frame) = { fr with slab = Bytes.copy fr.slab; loops = [] }

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

(* ---- scalar operations (tests and the constant folder; the engine
   compiles one closure per operation instead) ---- *)

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
  let phis = blk.phis and staged = blk.staged and s = fr.slab in
  for k = 0 to Array.length phis - 1 do
    let ph = phis.(k) in
    retire t opc_phi;
    if ph.on_def then t.hooks.Events.on_watched_def ~instr_id:ph.phi_id ~clock:t.clock;
    notify_uses t ph.uses;
    (match (match seed with [] -> None | _ -> List.assoc_opt ph.phi_id seed) with
    | Some v -> set staged (8 * k) (Rvalue.bits_of v)
    | None ->
        let i = ref (Array.length ph.preds - 1) in
        while !i >= 0 && ph.preds.(!i) <> pred do
          decr i
        done;
        if !i < 0 then
          error "phi %%%d in @%s has no entry for predecessor bb%d" ph.phi_id p.fname
            pred;
        let src = ph.srcs.(!i) in
        if src < 0 then raise (Runtime_error ph.errs.(!i));
        set staged (8 * k) (get s src));
    if ph.on_value then
      t.hooks.Events.on_header_phi ~phi_id:ph.phi_id
        ~value:(box ph.phi_ty (get staged (8 * k)))
        ~clock:t.clock
  done;
  for k = 0 to Array.length phis - 1 do
    set s (8 * phis.(k).phi_id) (get staged (8 * k))
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
            le_frame = fr;
          }
      else None
  | _ -> None

(* Apply a delegate's whole-loop commit to the live frame. The runner
   pre-checks remaining fuel, so the guard here only defends the budget
   invariant (a commit must never push the clock past the fuel). The lump
   moves the next sample with it: samples keep counting ticks. *)
let apply_commit t (c : loop_commit) (fr : frame) =
  if c.lc_clock > t.fuel - t.clock then raise (Budget_stop Fuel);
  t.clock <- t.clock + c.lc_clock;
  t.next_sample <- t.next_sample + c.lc_clock;
  set_next_event t;
  if Array.length t.opcounts <> 0 then
    t.opcounts.(opc_committed) <- t.opcounts.(opc_committed) + c.lc_clock;
  List.iter (fun (id, v) -> set fr.slab (8 * id) (Rvalue.bits_of v)) c.lc_regs;
  List.iter
    (fun (addr, vs) -> Array.iteri (fun k v -> Rvalue.store t.mem (addr + k) v) vs)
    c.lc_writes;
  t.mem_accesses <- t.mem_accesses + c.lc_accesses;
  t.mem_events <- t.mem_events + c.lc_accesses;
  Buffer.add_string t.out c.lc_output

(* Run one activation of [p] over [slab], a copy of its template with the
   arguments in the parameter slots; true when a return wrote the return
   slot. *)
let exec_func t (p : func_plan) (slab : Bytes.t) : bool =
  (* Checked before the frame opens: no enter event has fired yet, so the
     unwinding caller frames are the only ones that need closing. *)
  if t.depth >= t.max_depth then raise (Budget_stop Call_depth);
  t.depth <- t.depth + 1;
  t.hooks.Events.on_call_enter ~fname:p.fname ~clock:t.clock;
  let fr = { plan = p; slab; loops = []; returned = false } in
  let cur = ref p.fn.Ir.Func.entry in
  let from_ = ref (-1) in
  (try
     while !cur >= 0 do
       let b = !cur in
       match delegated t p fr ~from_:!from_ b with
       | Some c ->
           apply_commit t c fr;
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
  fr.returned

(* ---- compilation ---- *)

let raiser msg _ = raise (Runtime_error msg)

let lcg_next s = Int64.add (Int64.mul s 6364136223846793005L) 1442695040888963407L

(* A builtin's effect on its evaluated arguments, chosen by name and arity
   once, at compile time. *)
let builtin_effect t name arity : rv array -> rv option =
  let float1 f a = Some (Vfloat (f (as_float a.(0)))) in
  let word v = host_word (as_int v) in
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
        Buffer.add_char t.out (Char.chr (Int64.to_int (as_int a.(0)) land 0xff));
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
        for i = 0 to max n 0 - 1 do
          retire t opc_builtin;
          mem_access t ~addr:(src + i) ~is_write:false;
          mem_access t ~addr:(dst + i) ~is_write:true;
          Rvalue.copy_word t.mem ~src:(src + i) ~dst:(dst + i)
        done;
        Some a.(2)
  | "arrfill", 3 ->
      fun a ->
        let dst = word a.(0) and n = word a.(2) in
        for i = 0 to max n 0 - 1 do
          retire t opc_builtin;
          mem_access t ~addr:(dst + i) ~is_write:true;
          Rvalue.store t.mem (dst + i) a.(1)
        done;
        Some a.(2)
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

(* A call instruction, its callee bound at compile time. A builtin gets its
   arguments boxed by their IR types. A user function gets a fresh slab,
   the arguments copied slot to slot into its parameter slots, and its
   return slot copied into the result. *)
let compile_call t (p : func_plan) id ~has_value callee cargs : frame -> unit =
  let d = 8 * id in
  let void () = error "void result from @%s used as a value" callee in
  if Ir.Builtins.is_builtin callee then begin
    let tys = Array.of_list (List.map (ty_of p) cargs) in
    let srcs = Array.of_list (List.map (off t p) cargs) in
    let f = builtin t callee (Array.length srcs) in
    fun fr ->
      let s = fr.slab in
      match f (Array.mapi (fun k o -> box tys.(k) (get s o)) srcs) with
      | Some v -> if has_value then set s d (Rvalue.bits_of v)
      | None -> if has_value then void ()
  end
  else
    match Hashtbl.find_opt t.plans callee with
    | None -> fun _ -> error "call to undefined function @%s" callee
    | Some cp ->
        let srcs = Array.of_list (List.map (off t p) cargs) in
        let n = min (Array.length srcs) cp.nparams and base = 8 * cp.param_base in
        fun fr ->
          let s = fr.slab in
          let callee_slab = Bytes.copy cp.template in
          for k = 0 to n - 1 do
            set callee_slab (base + (8 * k)) (get s (Array.unsafe_get srcs k))
          done;
          if exec_func t cp callee_slab then begin
            if has_value then set s d (get callee_slab cp.ret_off)
          end
          else if has_value then void ()

let compile_ibinop (op : Ir.Instr.ibinop) a b d : frame -> unit =
  let open Ir.Instr in
  match op with
  | Add -> fun fr -> set fr.slab d (Int64.add (get fr.slab a) (get fr.slab b))
  | Sub -> fun fr -> set fr.slab d (Int64.sub (get fr.slab a) (get fr.slab b))
  | Mul -> fun fr -> set fr.slab d (Int64.mul (get fr.slab a) (get fr.slab b))
  | Sdiv ->
      fun fr ->
        let s = fr.slab in
        let y = get s b in
        if y = 0L then trap Div_by_zero "division by zero";
        set s d (if y = -1L then Int64.neg (get s a) else Int64.div (get s a) y)
  | Srem ->
      fun fr ->
        let s = fr.slab in
        let y = get s b in
        if y = 0L then trap Div_by_zero "remainder by zero";
        set s d (if y = -1L then 0L else Int64.rem (get s a) y)
  | And -> fun fr -> set fr.slab d (Int64.logand (get fr.slab a) (get fr.slab b))
  | Or -> fun fr -> set fr.slab d (Int64.logor (get fr.slab a) (get fr.slab b))
  | Xor -> fun fr -> set fr.slab d (Int64.logxor (get fr.slab a) (get fr.slab b))
  | Shl ->
      fun fr ->
        let s = fr.slab in
        set s d (Int64.shift_left (get s a) (Int64.to_int (get s b) land 63))
  | Ashr ->
      fun fr ->
        let s = fr.slab in
        set s d (Int64.shift_right (get s a) (Int64.to_int (get s b) land 63))
  | Lshr ->
      fun fr ->
        let s = fr.slab in
        set s d (Int64.shift_right_logical (get s a) (Int64.to_int (get s b) land 63))

(* i64 and i1 operands alike: an i1 is 0 or 1, so false orders before
   true, as in [exec_icmp]. *)
let compile_icmp (op : Ir.Instr.icmp) a b d : frame -> unit =
  let open Ir.Instr in
  match op with
  | Ieq -> fun fr -> set fr.slab d (of_bool (get fr.slab a = get fr.slab b))
  | Ine -> fun fr -> set fr.slab d (of_bool (get fr.slab a <> get fr.slab b))
  | Islt -> fun fr -> set fr.slab d (of_bool (get fr.slab a < get fr.slab b))
  | Isle -> fun fr -> set fr.slab d (of_bool (get fr.slab a <= get fr.slab b))
  | Isgt -> fun fr -> set fr.slab d (of_bool (get fr.slab a > get fr.slab b))
  | Isge -> fun fr -> set fr.slab d (of_bool (get fr.slab a >= get fr.slab b))

let compile_fcmp (op : Ir.Instr.fcmp) a b d : frame -> unit =
  let open Ir.Instr in
  match op with
  | Feq -> fun fr -> set fr.slab d (of_bool (getf fr.slab a = getf fr.slab b))
  | Fne -> fun fr -> set fr.slab d (of_bool (getf fr.slab a <> getf fr.slab b))
  | Flt -> fun fr -> set fr.slab d (of_bool (getf fr.slab a < getf fr.slab b))
  | Fle -> fun fr -> set fr.slab d (of_bool (getf fr.slab a <= getf fr.slab b))
  | Fgt -> fun fr -> set fr.slab d (of_bool (getf fr.slab a > getf fr.slab b))
  | Fge -> fun fr -> set fr.slab d (of_bool (getf fr.slab a >= getf fr.slab b))

let compile_instr t (p : func_plan) id (ins : Ir.Instr.t) : frame -> unit =
  let open Ir.Instr in
  let o = off t p and d = 8 * id and mem = t.mem in
  match ins.kind with
  | Ibinop (op, a, b) -> compile_ibinop op (o a) (o b) d
  | Fbinop (op, a, b) -> (
      let a = o a and b = o b in
      match op with
      | Fadd -> fun fr -> setf fr.slab d (getf fr.slab a +. getf fr.slab b)
      | Fsub -> fun fr -> setf fr.slab d (getf fr.slab a -. getf fr.slab b)
      | Fmul -> fun fr -> setf fr.slab d (getf fr.slab a *. getf fr.slab b)
      | Fdiv -> fun fr -> setf fr.slab d (getf fr.slab a /. getf fr.slab b))
  | Icmp (op, a, b) -> compile_icmp op (o a) (o b) d
  | Fcmp (op, a, b) -> compile_fcmp op (o a) (o b) d
  | Select (c, x, y) ->
      let c = o c and x = o x and y = o y in
      fun fr ->
        let s = fr.slab in
        set s d (if get s c <> 0L then get s x else get s y)
  | Si_to_fp x ->
      let x = o x in
      fun fr -> setf fr.slab d (Int64.to_float (get fr.slab x))
  | Fp_to_si x ->
      let x = o x in
      fun fr -> set fr.slab d (Int64.of_float (getf fr.slab x))
  | Load a -> (
      let a = o a in
      match ins.ty with
      | Some Ir.Types.F64 ->
          fun fr ->
            let x = get fr.slab a in
            let addr = host_word x in
            mem_access t ~addr ~is_write:false;
            set fr.slab d (load_float mem addr x)
      | Some Ir.Types.I1 ->
          fun fr ->
            let x = get fr.slab a in
            let addr = host_word x in
            mem_access t ~addr ~is_write:false;
            set fr.slab d (load_bool mem addr x)
      | Some Ir.Types.I64 | None ->
          fun fr ->
            let x = get fr.slab a in
            let addr = host_word x in
            mem_access t ~addr ~is_write:false;
            set fr.slab d (load_int mem addr x))
  | Store (a, v) ->
      (* the word's tag is the stored operand's IR type *)
      let tag =
        match ty_of p v with
        | Ir.Types.I64 -> tag_int
        | Ir.Types.F64 -> tag_float
        | Ir.Types.I1 -> tag_bool
      in
      let a = o a and v = o v in
      fun fr ->
        let x = get fr.slab a in
        let addr = host_word x in
        mem_access t ~addr ~is_write:true;
        store_word mem addr x tag (get fr.slab v)
  | Alloc n ->
      let n = o n in
      fun fr -> set fr.slab d (Int64.of_int (Rvalue.alloc mem (get fr.slab n)))
  | Call (callee, cargs) ->
      compile_call t p id ~has_value:(ins.ty <> None) callee cargs
  (* phis and terminators never reach a block body *)
  | Phi _ | Br _ | Cond_br _ | Ret _ | Unreachable -> raiser "not a body instruction"

let compile_term t (p : func_plan) (kind : Ir.Instr.kind) : frame -> int =
  match kind with
  | Ir.Instr.Br l -> fun _ -> l
  | Ir.Instr.Cond_br (c, l1, l2) ->
      let c = off t p c in
      fun fr -> if get fr.slab c <> 0L then l1 else l2
  | Ir.Instr.Ret None -> fun _ -> -1
  | Ir.Instr.Ret (Some v) ->
      let v = off t p v and r = p.ret_off in
      fun fr ->
        set fr.slab r (get fr.slab v);
        fr.returned <- true;
        -1
  | _ -> raiser (Printf.sprintf "reached 'unreachable' in @%s" p.fname)

(* An instruction naming an unknown global raises that error when it
   executes. *)
let or_raiser compile = try compile () with Runtime_error msg -> raiser msg

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
            let src (_, v) =
              match off t p v with o -> (o, "") | exception Runtime_error msg -> (-1, msg)
            in
            let srcs = Array.map src incoming in
            Some
              {
                phi_id = id;
                phi_ty = ty_of p (Ir.Types.Reg id);
                preds = Array.map fst incoming;
                srcs = Array.map fst srcs;
                errs = Array.map snd srcs;
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
        ( Ir.Instr.opcode (kind id),
          hooked t w id (or_raiser (fun () -> compile_term t p (kind id))) )
    | None -> (-1, raiser (Printf.sprintf "block bb%d in @%s fell through" b p.fname))
  in
  let phis = Array.of_list phis in
  {
    phis;
    staged = Bytes.create (8 * Array.length phis);
    opcs = Array.of_list (List.map (fun id -> Ir.Instr.opcode (kind id)) body);
    body =
      Array.of_list
        (List.map
           (fun id ->
             hooked t w id
               (or_raiser (fun () -> compile_instr t p id (Ir.Func.instr fn id))))
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
  let nparams = List.length fn.Ir.Func.params and param_base = Ir.Func.num_instrs fn in
  {
    fn;
    fname = fn.Ir.Func.fname;
    li;
    watch;
    nparams;
    param_base;
    ret_off = 8 * (param_base + nparams);
    const_base = param_base + nparams + 1;
    consts = Hashtbl.create 16;
    template = Bytes.empty;
    in_loop;
    wants_mem =
      Array.init (Array.length in_loop) (fun lid ->
          lid >= Array.length mem_lids || mem_lids.(lid));
    blocks = [||];
  }

(* A fresh slab: every slot zero but the constants. *)
let template (p : func_plan) =
  let s = Bytes.make (8 * (p.const_base + Hashtbl.length p.consts)) '\000' in
  Hashtbl.iter (fun bits o -> set s o bits) p.consts;
  s

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
    (fun _ p ->
      p.blocks <- Array.init (Ir.Func.num_blocks p.fn) (compile_block t p);
      p.template <- template p)
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
   [frame]'s slab, starting as if arriving from [pred] with the header phis
   of the first arrival overridden by [seed]. Stops *before* the arrival
   that would begin body [max_iters + 1] — that arrival's phi evaluations
   belong to the next shard, whose seed reproduces them. Used by shard
   workers on a forked image: loop events fire as usual, and any trap or
   budget stop unwinds with the loop bookkeeping rebalanced. *)
let run_loop_range t ~(frame : frame) ~header ~pred ~seed ~max_iters : range_result =
  let p = frame.plan in
  let lid =
    match Cfg.Loopinfo.loop_of_header p.li header with
    | Some l -> l
    | None -> error "run_loop_range: bb%d in @%s is not a loop header" header p.fname
  in
  let fr = { frame with loops = [] } in
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
           error "return while executing loop bb%d of @%s as a range" header p.fname
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
  let p = plan t "main" in
  let slab = Bytes.copy p.template in
  List.iteri
    (fun i v -> if i < p.nparams then set slab (8 * (p.param_base + i)) (Rvalue.bits_of v))
    args;
  let ret, stop =
    match exec_func t p slab with
    | true ->
        let ty = Option.value p.fn.Ir.Func.ret ~default:Ir.Types.I64 in
        (Some (box ty (get slab p.ret_off)), Completed)
    | false -> (None, Completed)
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
