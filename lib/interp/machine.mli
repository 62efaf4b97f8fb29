(** The IR interpreter — the limit study's run-time component. Executes a
    verified module deterministically, advancing a clock by one per executed
    IR instruction (the paper's dynamic-IR-instruction-count time metric)
    and reporting instrumentation events through {!Events.hooks}. *)

type t

(** Test-only fault injection: at the first executed instruction whose clock
    reaches the stamp, the fault fires (a classified {!Rvalue.Trap} or a
    graceful {!Rvalue.Budget_stop}). Lets the campaign runner and the fuzz
    suite prove that every error path yields a classified, well-formed
    result instead of a crash. *)
type fault =
  | Inject_div_by_zero
  | Inject_oob
  | Inject_fuel_out
  | Inject_depth_out

type fault_plan = (int * fault) list

(** A fresh arrival at a loop header from outside the loop, offered to the
    {!set_delegate} hook before the machine executes the loop serially.
    [le_regs]/[le_args] are the live frame state; a delegate that declines
    must leave them untouched. *)
type loop_entry = {
  le_fname : string;
  le_lid : int;  (** Cfg.Loopinfo lid within [le_fname] *)
  le_header : int;  (** header block id *)
  le_pred : int;  (** the out-of-loop predecessor block (preheader) *)
  le_regs : Rvalue.rv array;
  le_args : Rvalue.rv array;
}

(** The whole-loop effect a delegate commits in place of serial execution:
    exactly the clock ticks, register updates, memory writes, access counts
    and program output the serial loop would have produced, plus the exit
    edge to resume from. Byte-equivalence with serial execution is the
    delegate's contract — the machine applies the commit verbatim and fires
    no loop events for the committed invocation. *)
type loop_commit = {
  lc_exit_pred : int;
  lc_exit_target : int;
  lc_clock : int;
  lc_accesses : int;
  lc_regs : (int * Rvalue.rv) list;
  lc_writes : (int * Rvalue.rv) list;
  lc_output : string;
}

(** Why execution stopped. On [Truncated], the machine closed every open
    loop invocation and call frame before returning, so listeners saw a
    well-formed event stream over the executed prefix. *)
type stop_reason = Completed | Truncated of Rvalue.budget_kind

val stop_reason_to_string : stop_reason -> string

type outcome = {
  ret : Rvalue.rv option;  (** main's return value; [None] when truncated *)
  stop : stop_reason;  (** completed, or which budget truncated the run *)
  clock : int;  (** total dynamic IR instructions *)
  output : string;  (** everything the print builtins emitted *)
  mem_words : int;  (** heap high-water mark *)
  mem_accesses : int;  (** word accesses executed *)
  mem_events : int;
      (** word accesses reported to hooks — lower than [mem_accesses] when
          watch plans pruned statically proven RAW-free loops *)
}

(** [watch] supplies per-function watch plans (which instructions report
    defs/uses/phi values); [fuel] bounds the instruction count; [mem_limit]
    bounds memory (words); [max_depth] bounds the call stack; [deadline] is
    an absolute {e wall-clock} stamp ([Unix.gettimeofday], polled every 64k
    instructions) — real elapsed time, not processor time, so a deadline
    computed by the caller holds even if the process is descheduled;
    [faults] is a test-only injection plan. Exhausting any of these budgets
    stops the run cleanly ({!stop_reason}) rather than raising. *)
val create :
  ?hooks:Events.hooks ->
  ?fuel:int ->
  ?mem_limit:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?faults:fault_plan ->
  ?watch:(string -> Events.watch_plan option) ->
  Ir.Func.modul ->
  t

(** The loop forest the machine computed for a function (lids match what the
    loop events report). *)
val loopinfo : t -> string -> Cfg.Loopinfo.t

(** Dynamic IR instructions executed so far. Deterministic across re-runs,
    and readable after {!run_main} raised a trap — when no {!outcome} record
    exists — so failure fingerprints can carry the trap's clock. *)
val clock : t -> int

(** {!clock} under its counter name: dynamic IR instructions executed so
    far. Like [clock], readable on every exit path — including after a
    trap — which is what lets the driver publish run counters even for
    failed runs. *)
val instructions_retired : t -> int

(** Word accesses executed so far. *)
val mem_accesses : t -> int

(** Word accesses reported through hooks so far — lower than
    {!mem_accesses} when watch plans pruned statically proven RAW-free
    loops. *)
val mem_events : t -> int

(** Accesses the watch plans pruned: [mem_accesses - mem_events]. *)
val mem_events_pruned : t -> int

(** The machine's fuel budget (total, not remaining — pair with {!clock}).
    The guarded runner pre-checks a commit's lump of ticks against it. *)
val fuel : t -> int

(** {2 Self-profiling (lib/prof)}

    Both facilities follow the lib/obs zero-cost-when-off contract. Until
    enabled, the opcode counters cost one array-length read per
    instruction. The sampler costs nothing per instruction, armed or not:
    its next sample joins fuel, fault stamps and the deadline poll in the
    one next-event clock that every tick compares against. *)

(** Allocate the per-opcode retired-instruction counters. Counts partition
    the clock exactly: IR constructors by {!Ir.Instr.opcode}, plus a
    ["builtin_mem"] slot for the per-element ticks of arrcopy/arrfill and a
    ["committed"] slot for clock lumps a delegate's loop commit applied —
    so the counter sum always equals {!instructions_retired}. Idempotent. *)
val enable_opcode_counts : t -> unit

(** [(opcode name, retired count)] pairs, zero entries dropped; [[]] until
    {!enable_opcode_counts}. *)
val opcode_counts : t -> (string * int) list

(** Arm the deterministic sampling profiler: [f clock] fires every
    [period] retired instructions (first at clock [period]). Placement is
    a pure function of the clock, so samples land on the same instructions
    in every run of the same program.
    @raise Invalid_argument when [period <= 0] *)
val set_sampler : t -> period:int -> (int -> unit) -> unit

(** Disarm the sampler. *)
val clear_sampler : t -> unit

(** Swap the instrumentation hooks. Shard workers install their access
    loggers per task on the forked machine image. *)
val set_hooks : t -> Events.hooks -> unit

(** Install (or clear) the guarded-execution delegate, consulted on every
    fresh loop entry. [None] — the default — means every loop executes
    serially. Only meaningful with default (unpruned) watch plans: a commit
    counts every shard access as both executed and reported. *)
val set_delegate : t -> (t -> loop_entry -> loop_commit option) option -> unit

(** Raw word read/write: no tick, no access counting, bounds-checked.
    Shard workers snapshot final written values and undo their writes with
    these; the parent applies a committed write set through
    {!loop_commit.lc_writes} instead. *)
val read_word : t -> int -> Rvalue.rv

val write_word : t -> int -> Rvalue.rv -> unit

(** Program-output splicing for shard isolation: record {!output_length}
    before a range, ship {!output_since} that position, then
    {!truncate_output} back so a worker never leaks shard output into a
    later task. *)
val output_length : t -> int

val output_since : t -> int -> string

val truncate_output : t -> int -> unit

(** Evaluate an instruction operand against an explicit register/argument
    frame (resolves globals through the machine's memory layout). *)
val eval_operand :
  t -> regs:Rvalue.rv array -> args:Rvalue.rv array -> Ir.Types.value -> Rvalue.rv

(** Scalar semantics, exposed for tests and the constant folder (optimized
    code can never disagree with execution).
    @raise Rvalue.Trap ([Div_by_zero]) on division/remainder by zero *)
val exec_ibinop : Ir.Instr.ibinop -> int64 -> int64 -> int64

val exec_fbinop : Ir.Instr.fbinop -> float -> float -> float

val exec_icmp : Ir.Instr.icmp -> Rvalue.rv -> Rvalue.rv -> bool

val exec_fcmp : Ir.Instr.fcmp -> float -> float -> bool

(** Run [main] (which must exist). Budget exhaustion (fuel, call depth,
    heap, wall clock) is reported through [outcome.stop], never raised.
    @raise Rvalue.Trap on program faults (division by zero, out-of-bounds)
    @raise Rvalue.Runtime_error on interpreter-invariant breakage *)
val run_main : ?args:Rvalue.rv list -> t -> outcome

(** Result of {!run_loop_range}: how many loop bodies completed, and the
    exit edge if the loop left its region on its own. *)
type range_result = {
  rr_iters : int;  (** completed loop bodies *)
  rr_exit : (int * int) option;
      (** [Some (pred, target)] when the loop exited; [None] when
          [max_iters] bodies completed and the range was cut *)
}

(** Execute up to [max_iters] bodies of the loop headed at [header]
    against an explicit frame, starting as if arriving from [pred] with
    the first arrival's header phis overridden by [seed] (phi id ->
    value). Stops {e before} the arrival that would begin body
    [max_iters + 1]: that arrival's phi evaluations belong to the next
    shard, whose seed reproduces them. Loop events fire as usual; traps
    and budget stops unwind with the loop bookkeeping rebalanced.
    @raise Rvalue.Trap on program faults
    @raise Rvalue.Budget_stop on budget exhaustion
    @raise Rvalue.Runtime_error if [header] is not a loop header or the
    range returns out of the function *)
val run_loop_range :
  t ->
  fname:string ->
  regs:Rvalue.rv array ->
  args:Rvalue.rv array ->
  header:int ->
  pred:int ->
  seed:(int * Rvalue.rv) list ->
  max_iters:int ->
  range_result
