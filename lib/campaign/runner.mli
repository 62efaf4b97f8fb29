(** Fault-tolerant campaign runner: the whole limit-study pipeline over a
    set of targets with per-task isolation, structured error taxonomy,
    per-task budgets, one automatic retry at reduced fuel for
    budget-exhausted tasks, a JSONL checkpoint of finished tasks, and
    resumption that skips already-checkpointed work. *)

(** Why a task failed. Budget exhaustion normally yields a usable truncated
    result ({!status}); [Budget_exhausted] marks the degenerate case where
    the budget ran out before any instruction executed. *)
type error =
  | Compile_error of string
  | Verifier_error of string
  | Trap of Interp.Rvalue.trap_kind * string
  | Budget_exhausted of Interp.Rvalue.budget_kind
  | Crash of string  (** anything else, printed — the catch-all of the taxonomy *)
  | Worker_lost of string
      (** under [Forked _]: the forked worker executing the task died
          (killed by a signal, OOM, ...) — the task is recorded, never
          retried, and resume skips it *)
  | Task_timeout of string
      (** under [Forked _] with a watchdog ([budgets.watchdog_s]): the
          task outlived its per-task wall deadline and the pool SIGKILLed
          its worker (the only remedy for a stalled — e.g. SIGSTOP'd —
          process). Rides the checkpoint codec like {!Worker_lost}, so
          resume skips it rather than re-running a known-hung task *)

(** How tasks are executed: [Serial] in-process (the reference semantics),
    or [Forked jobs] across a {!Exec.Pool} of forked workers, each handed
    the next task whenever it is idle. [Forked j] with [j <= 1] runs as
    [Serial]. *)
type executor = Serial | Forked of int

(** Raised by {!run} after a SIGINT/SIGTERM: every already-decided result
    has been flushed to the checkpoint (whole lines only), so a later
    [~resume:true] run continues where the interrupt landed. *)
exception Interrupted

(** One configuration rung evaluated against a task's profile. *)
type score = { config : Loopa.Config.t; speedup : float; coverage_pct : float }

type status =
  | Completed of score list
  | Truncated of Interp.Rvalue.budget_kind * score list
      (** a budget ran out mid-run: scores are over the executed prefix *)
  | Errored of error

type result = {
  target : string;
  status : status;
  attempts : int;
  clock : int;  (** dynamic IR instructions the profiling run executed *)
  wall_s : float;
}

(** Clock taxonomy: [fuel], [mem_limit] and [max_depth] are deterministic
    machine budgets. [wall_s] and [watchdog_s] are {e wall-clock}
    ([Unix.gettimeofday]) budgets — real elapsed time, not processor
    time. [wall_s] is cooperative: {!Interp.Machine} polls the deadline
    between instructions, so it cannot fire in a worker that is stalled
    outside the interpreter (or SIGSTOP'd). [watchdog_s] is enforced
    from the parent by the pool's watchdog and therefore works on any
    hang, at the cost of killing the worker ({!Task_timeout}).
    Telemetry span durations remain on [Sys.time] (processor time) —
    see {!Obs.Telemetry.set_clock}. *)
type budgets = {
  fuel : int;
  mem_limit : int;
  max_depth : int;
  wall_s : float option;  (** per-attempt wall-clock budget (cooperative) *)
  retries : int;  (** extra attempts at reduced fuel after budget exhaustion *)
  watchdog_s : float option;
      (** per-task wall deadline enforced by the pool watchdog under
          [Forked _]; [None] disables the watchdog (unless a chaos plan
          forces a default — a stall fault without a watchdog would hang
          the pool) *)
}

(** {!Loopa.Config.default_fuel}, 2^26 words, depth 10k, no wall budget,
    one retry, no watchdog. *)
val default_budgets : budgets

(** One campaign progress beat, emitted after every finished (or resumed)
    task. [hb_counters] holds the Obs.Telemetry counter deltas since the
    previous beat — empty unless telemetry is enabled. *)
type heartbeat = {
  hb_done : int;
  hb_total : int;
  hb_elapsed_s : float;
  hb_tasks_per_s : float;
  hb_eta_s : float;
  hb_counters : (string * int) list;
  hb_timeouts : int;
      (** watchdog kills so far this campaign (from [pool.timeouts];
          populated while telemetry is enabled) *)
}

(** Render a beat as a one-line progress report:
    ["[3/10] 1.25 tasks/s, eta 5.6s | interp.instructions +1234, ..."]
    (the three largest counter movements only). Watchdog timeouts are
    appended when non-zero, so a run that keeps timing out shows it while
    it happens. *)
val heartbeat_line : heartbeat -> string

type summary = {
  results : result list;  (** target order; resumed results included *)
  n_completed : int;
  n_truncated : int;
  n_errored : int;
  n_resumed : int;  (** subset of the above restored from the checkpoint *)
  n_cached : int;
      (** subset served from the content-addressed result cache
          ([cache_find]) without executing *)
  geomeans : (Loopa.Config.t * float) list;
      (** per config rung, over every task that produced scores *)
  failures : (string * int) list;  (** error class -> count *)
}

val error_class : error -> string

val error_to_string : error -> string

(** ["completed"], ["truncated"] or ["error"] — the checkpoint status tag. *)
val status_class : status -> string

val status_to_string : status -> string

(** Checkpoint-line codec (JSONL: one result object per line). Decoding
    tolerates and reports malformed lines rather than failing the run;
    unknown fields are ignored, which is what lets [telemetry] (a per-task
    {!Obs.Export.snapshot_json} span/counter snapshot) ride along in
    checkpoint lines without breaking older readers. *)
val result_to_json : ?telemetry:Util.Json.t -> result -> Util.Json.t

val result_of_json : Util.Json.t -> (result, string) Stdlib.result

(** Run a campaign over [(target name, Looplang source)] pairs under the
    Figure-2/3 configuration ladder (or [configs]). Every task failure is
    captured into {!error}; nothing a program does can abort the campaign.
    [checkpoint] appends one JSONL line per finished task (truncated at
    start unless [resume]); [resume] reloads it first and skips targets
    already recorded. [faults_of] supplies a test-only injection plan per
    target ({!Interp.Machine.fault_plan}). [repro_dir] makes every errored
    task drop a self-contained {!Repro.Bundle} (named
    [<target>.repro.json]) there, replayable and shrinkable offline with
    the [repro] CLI subcommands. [log] receives one status line per task:
    cache hits and resumed tasks first, then the fresh tasks in target
    order, each as its checkpoint line is written. [prof_dir] attaches a
    {!Prof.Hotspot} profiler to every task's full-fuel attempt and drops
    [<target>.folded], [<target>.samples.folded] and
    [<target>.speedscope.json] there (the reduced-fuel retry is not
    profiled). [heartbeat] receives one {!heartbeat} beat per finished
    task; with telemetry enabled, every task also runs inside a
    ["campaign.task"] span and its span/counter snapshot is embedded in
    the checkpoint line.

    [executor] selects serial or forked-pool execution. Every task runs
    through one task body: under [Forked jobs] the pool runs the tasks
    across [jobs] worker processes and decides every one of them unless
    the run is interrupted; under [Serial] each task runs in the parent,
    in task order. Either way the checkpoint is the same (modulo
    wall-clock and telemetry timing fields): results are put back into
    task order and written by the parent alone. A worker resets its
    telemetry at the start of every task and ships that task's spans,
    counter deltas and histograms with its result; the parent absorbs
    them into its registry, so fleet-wide exports and heartbeats see one
    registry, and a worker that dies later loses none of the tasks it
    delivered. A worker death costs exactly its in-flight task
    ({!Worker_lost}); while tasks are still queued the worker is replaced
    at once and the campaign continues. A task that kills the process
    running it therefore never runs in the parent under [Forked].

    [on_task_start] runs in the executing process just before a task
    begins — a test hook (e.g. to kill the worker mid-task).

    Supervision is the pool's watchdog alone. With [budgets.watchdog_s]
    set, it SIGKILLs any worker whose task outlives the deadline and
    records {!Task_timeout}.

    [chaos] injects a deterministic fault schedule ({!Exec.Chaos.plan}):
    worker-side faults (self-kill, SIGSTOP stall, torn/corrupt/delayed
    result frames) keyed by campaign task index, and simulated
    EIO/ENOSPC on checkpoint writes keyed by write-attempt index (a
    dropped line is logged and re-run on resume). A chaos plan with no
    watchdog configured forces a default deadline so stall faults cannot
    hang the run. Under [Serial], scheduled lethal faults are
    {e simulated} — recorded with byte-identical cause strings — so
    checkpoints stay deterministic across executors and across same-seed
    runs.

    Checkpoint durability: on completion or interrupt the checkpoint is
    flushed and [fsync]ed before close. Only newline-terminated lines
    count: [resume] loading salvages a partially-written file, logging
    one summary line (lines kept / malformed skipped / torn tail dropped),
    and truncates whatever follows the last newline on disk, even when
    it parses, so appended lines start on a whole-line boundary.

    Caching. [cache_find] is consulted once per fresh (non-resumed)
    target, in target order and before any execution; a hit is
    checkpointed immediately — so an all-hits warm run writes the same
    lines in the same order as a fresh run — counted in
    [summary.n_cached], and excluded from the fresh task order that
    chaos plans and the pool key on (exactly like a resumed result).
    [cache_store] receives every fresh [Completed]/[Truncated] result
    (never [Errored] ones — a lost worker or timeout must not poison
    the cache). Both hooks are failure-isolated: a throwing find is a
    miss, a throwing store is logged and ignored.

    While running, SIGINT/SIGTERM are caught: the runner finishes flushing
    decided results to the checkpoint and raises {!Interrupted}. *)
val run :
  ?budgets:budgets ->
  ?configs:Loopa.Config.t list ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?faults_of:(string -> Interp.Machine.fault_plan) ->
  ?repro_dir:string ->
  ?prof_dir:string ->
  ?log:(string -> unit) ->
  ?heartbeat:(heartbeat -> unit) ->
  ?executor:executor ->
  ?on_task_start:(string -> unit) ->
  ?chaos:Exec.Chaos.plan ->
  ?cache_find:(string -> result option) ->
  ?cache_store:(string -> result -> unit) ->
  (string * string) list ->
  summary

val summary_to_json : summary -> Util.Json.t
