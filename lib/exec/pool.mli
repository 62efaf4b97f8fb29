(** Exec.Pool — a fork-based multi-process worker pool that hands each
    idle worker one task at a time, supervised by a watchdog.

    The pool is generic and dependency-free: tasks and results are plain
    OCaml values of any marshalable type (no closures), the worker body is
    an ordinary closure (the fork inherits the parent image, so the
    closure may capture arbitrary in-memory state — source arrays,
    analysis results — with no serialization), and all IPC is
    checksummed, marshalled frames ({!Ipc}) over per-worker pipe pairs.
    A task crosses as [(index, task)]; a worker answers with its result
    or its exception's text.

    {b Scheduling.} The parent keeps the queue. An idle worker receives
    the next queued task, which counts as running from the moment it is
    sent; the worker replies with its result or its exception and is
    handed the next task before the finished one reaches [on_complete],
    so the caller's bookkeeping overlaps that task. A slow task delays
    only itself: the other workers keep draining the queue. EOF on its
    task pipe ends a worker: an idle worker is retired as soon as nothing
    is queued, by closing that pipe, and exits while the parent waits for
    the others. Workers are forked one at a time, and each closes the
    parent's ends of the pipes of every sibling forked before it.

    {b One task per fork.} With [jobs >= Array.length tasks], each task
    runs in its own fresh fork of the caller: no worker is handed a
    second task, so [work] may leave its worker's image in any state.
    [Parrun.Runner]'s shard workers rely on this.

    {b Fault isolation.} A worker that exits, is killed by a signal, or
    raises out of [work] is reaped ([waitpid]) and its in-flight task is
    reported as {!Lost} with a human-readable cause. Lost tasks are never
    retried by the pool — a task that reliably kills its worker must cost
    one task, not the run.

    {b Supervision.} One mechanism, off by default: the {b watchdog}
    ([task_deadline_s]). Any running task that outlives the wall deadline
    ([Unix.gettimeofday]-based) costs its worker a SIGKILL — which also
    terminates a SIGSTOP-stalled process — and is delivered as
    {!Timed_out} carrying the {e configured} deadline, so the outcome is
    deterministic. The killed worker is reaped before any other task is
    dispatched, so it costs that one task. Without a watchdog a hung
    worker stalls the pool forever: deadlines inside the worker are
    cooperative ([Interp.Machine] polls its own budget) and cannot fire
    once the process is stopped.

    A dead worker is replaced at once while tasks are still queued, and
    not once the queue is empty. Every worker is handed a task before the
    pool next looks for deaths, so each replacement follows a death that
    decided a task: a workload whose every task kills its worker forks at
    most one worker per task and never sleeps. The pool decides every
    task unless [should_stop] ends the run.

    {b Chaos.} [chaos] threads a deterministic {!Chaos} fault schedule
    into the worker loop: a scheduled fault fires once the task's frame
    has arrived, while the parent counts the task as running
    (self-SIGKILL, self-SIGSTOP, torn/corrupt result frame, delayed
    completion), exercising exactly the failure paths above with
    placement that is a pure function of the seed.

    {b Determinism.} Results complete in any order and [on_complete]
    reports them in that order; each outcome carries its task index, and
    putting results back in task order is the caller's job (the campaign
    runner writes its JSONL checkpoint over the contiguous decided
    prefix). *)

type 'b outcome =
  | Done of 'b  (** the worker's result *)
  | Lost of string
      (** the worker died (signal, exit, OOM kill) or [work] raised;
          the string is the classified cause *)
  | Timed_out of float
      (** the watchdog SIGKILLed the worker after the task outlived this
          per-task deadline (the configured value, not the measured
          elapsed — outcomes must not depend on scheduling) *)

(** Number of usable cores ([Domain.recommended_domain_count]); what
    [--jobs 0] resolves to. Always >= 1. *)
val detect_jobs : unit -> int

(** [run ~jobs ~work tasks] executes [work tasks.(i)] for every [i] across
    [jobs] forked workers and returns one outcome per task ([None] only
    when [should_stop] ended the run before the task was dispatched or
    finished).

    [work] runs in the worker process; it should be total — an escaping
    exception costs the task ({!Lost}). Tasks and results cross {!Ipc}
    frames, so both must be marshalable: a closure in a result, or a
    result over {!Ipc.max_message}, costs its task; a closure in a task
    raises [Invalid_argument] out of [run]. [worker_init] runs once in each
    fresh worker before any task (e.g. to reset inherited state).
    [on_complete] fires once per decided task, in completion order.
    [should_stop] is polled between scheduling steps; when it turns true
    the pool kills its workers and returns with the undecided outcomes
    still [None]. Every worker has been reaped when [run] returns or
    raises.

    [task_deadline_s] and [chaos] are the supervision and chaos knobs
    described above. A [chaos] plan containing
    [Stall_self] faults needs a watchdog, or the stalled worker hangs
    the pool by design. [jobs] is clamped to [1 .. Array.length tasks].

    The pool temporarily ignores [SIGPIPE] (restored on exit) so a dying
    worker surfaces as [EPIPE]/EOF, never as a fatal signal.

    Telemetry: bumps the [pool.respawns] and [pool.timeouts] counters
    (no-ops while telemetry is disabled). *)
val run :
  jobs:int ->
  ?worker_init:(unit -> unit) ->
  ?on_complete:(int -> 'b outcome -> unit) ->
  ?should_stop:(unit -> bool) ->
  ?task_deadline_s:float ->
  ?chaos:Chaos.plan ->
  work:('a -> 'b) ->
  'a array ->
  'b outcome option array
