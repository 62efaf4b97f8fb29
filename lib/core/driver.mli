(** End-to-end pipeline (paper §III): Looplang source -> canonicalized SSA ->
    static classification -> one instrumented execution -> a profile that
    every configuration is evaluated against. *)

type analysis = { ms : Classify.module_static; profile : Profile.profile }

(** Which pipeline stage a classified failure came from. *)
type stage =
  | Compile
  | Verify
  | Prepare
  | Execute
  | Crosscheck
  | Evaluate
  | Fuzz
  | Parrun  (** guarded parallel loop execution (lib/parrun) *)

val stage_name : stage -> string

val stage_of_name : string -> stage option

(** A classified pipeline failure. The fingerprint is a short stable
    identity such as [compile:syntax@3:7] or [trap:div_by_zero@1234]: the
    part before the first ['@'] is the {e class} (what went wrong), the
    optional suffix an {e instance qualifier} (source position, interpreter
    clock) pinning where. Replay compares fingerprints strictly — the
    interpreter is deterministic — while the shrinker compares classes only,
    since deleting code legitimately moves positions and clocks. *)
type failure = { stage : stage; fingerprint : string; message : string }

val failure_to_string : failure -> string

(** Class part of a fingerprint: everything before the first ['@']. *)
val fingerprint_class : string -> string

(** [same_fingerprint ~strict a b]: exact equality when [strict] (default),
    class-only equality otherwise. *)
val same_fingerprint : ?strict:bool -> string -> string -> bool

(** FNV-1a 32-bit digest as 8 hex digits — stable across OCaml versions
    (unlike [Hashtbl.hash]); used for free-text failure classes. *)
val hash8 : string -> string

val trap_key : Interp.Rvalue.trap_kind -> string

val budget_key : Interp.Rvalue.budget_kind -> string

val compile_failure : Frontend.error -> failure

val verifier_failure : stage:stage -> string -> failure

val trap_failure : clock:int -> Interp.Rvalue.trap_kind -> string -> failure

val budget_failure : Interp.Rvalue.budget_kind -> failure

(** Catch-all: fingerprint [crash:<Ctor>@<hash8 of printed exn>]. *)
val crash_failure : stage:stage -> exn -> failure

(** Canonicalize loops (loop-simplify), re-verify, and classify every loop's
    register LCDs and every function's purity. Mutates [m]. [optimize]
    (default false) first runs the Opt pipeline (constant folding, CFG
    cleanup, DCE) — the paper's "-Ofast IR" starting point. *)
val prepare : ?optimize:bool -> Ir.Func.modul -> Classify.module_static

(** Execute the instrumented program once and collect the dynamic profile.
    [fuel] bounds the interpreted instruction count (default
    {!Config.default_fuel}); [mem_limit], [max_depth], [deadline] and
    [faults] pass through to {!Interp.Machine.create}. [predictors]
    (default {!Predictors.Hybrid.all}) selects the components of every
    register LCD's value-predictor bank under dep2 (ablation studies).
    Exhausting any budget truncates gracefully: the machine closes open
    loop invocations and call frames and the profile comes back with
    [truncated = true], still scorable by {!Evaluate} over the executed
    prefix. [static_prune]
    (default true) drops statically Proven_doall loops from the memory-event
    stream — sound for evaluation, since such loops never record conflicts;
    pass false to collect the unpruned profile (what {!Crosscheck} validates
    against). [observe_ranges] (default false) makes EVERY header phi report
    its per-arrival value so {!Crosscheck.check_ranges} can compare dynamic
    values against the statically proven intervals. [hotspot] attaches a
    {!Prof.Hotspot} profiler: its shadow stack tees the event hooks, the
    machine's opcode counters and deterministic sampler are armed, and
    [Prof.Hotspot.finish] runs on every exit path (including traps). The
    run's [interp.*] counters are published on every exit path too; a
    trap raises after counting in [interp.traps]. *)
val profile_module :
  ?fuel:int ->
  ?mem_limit:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?faults:Interp.Machine.fault_plan ->
  ?predictors:Predictors.Hybrid.component list ->
  ?static_prune:bool ->
  ?observe_ranges:bool ->
  ?hotspot:Prof.Hotspot.t ->
  Classify.module_static ->
  Profile.profile

(** As {!profile_module}, but every execution failure comes back as a
    classified {!failure} — traps carry the machine clock in their
    fingerprint, which an exception cannot. Budget exhaustion is still a
    success (a truncated profile). *)
val profile_result :
  ?fuel:int ->
  ?mem_limit:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?faults:Interp.Machine.fault_plan ->
  ?static_prune:bool ->
  ?observe_ranges:bool ->
  ?hotspot:Prof.Hotspot.t ->
  Classify.module_static ->
  (Profile.profile, failure) result

(** [compile + prepare + profile_module] from source text.
    @raise Frontend.Compile_error on front-end errors
    @raise Interp.Rvalue.Trap on program faults (division by zero, OOB)
    @raise Interp.Rvalue.Runtime_error on interpreter-invariant breakage *)
val analyze_source :
  ?fuel:int ->
  ?mem_limit:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?faults:Interp.Machine.fault_plan ->
  ?predictors:Predictors.Hybrid.component list ->
  ?optimize:bool ->
  ?static_prune:bool ->
  ?observe_ranges:bool ->
  ?hotspot:Prof.Hotspot.t ->
  string ->
  analysis

(** Evaluate one configuration against the recorded profile.
    @raise Config.Bad_config if the configuration is invalid *)
val evaluate : ?knobs:Evaluate.knobs -> analysis -> Config.t -> Evaluate.report

(** Compile and run a program without instrumentation (checksums, demos). *)
val run_source : ?fuel:int -> string -> Interp.Machine.outcome
