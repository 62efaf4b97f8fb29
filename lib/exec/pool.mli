(** Exec.Pool — a fork-based multi-process worker pool with a chunked task
    queue, dynamic work-stealing, and chaos-testable supervision.

    The pool is generic and dependency-free: tasks and results are opaque
    {!Util.Json.t} payloads, the worker body is an ordinary closure (the
    fork inherits the parent image, so the closure may capture arbitrary
    in-memory state — source arrays, analysis results — with no
    serialization), and all IPC is length-prefixed JSON frames
    ({!Ipc}) over per-worker pipe pairs.

    {b Scheduling.} The parent keeps the queue. Idle workers receive
    chunks of [max 1 (min max_chunk (remaining / (2 * jobs)))] tasks —
    large early chunks amortize IPC, shrinking ones avoid stragglers.
    When the queue drains while a worker still sits on unstarted chunk
    tasks, the parent sends it a steal request; the worker hands back
    everything it has not started (keeping one task to stay busy) and the
    parent re-dispatches the reclaimed tasks to idle workers. A slow task
    can therefore delay at most itself.

    {b Fault isolation.} A worker that exits, is killed by a signal, or
    raises out of [work] is reaped ([waitpid]) and its in-flight task is
    reported as {!Lost} with a human-readable cause; unstarted tasks of
    its chunk are re-queued undamaged. Lost tasks are never retried by
    the pool — a task that reliably kills its worker must cost one task,
    not the run.

    {b Supervision.} Three mechanisms, all off by default:
    - {b watchdog} ([task_deadline_s]): any announced task that outlives
      the wall deadline ([Unix.gettimeofday]-based) costs its worker a
      SIGKILL — which also terminates a SIGSTOP-stalled process — and is
      delivered as {!Timed_out} carrying the {e configured} deadline, so
      the outcome is deterministic. Without a watchdog a hung worker
      stalls the pool forever: deadlines inside the worker are
      cooperative ([Interp.Machine] polls its own budget) and cannot
      fire once the process is stopped.
    - {b backoff} ([backoff]): respawns after a worker death are
      scheduled through an exponential-backoff ladder with seeded jitter
      ({!Backoff}) instead of happening instantly; a successful task
      resets the ladder. Respawns remain bounded by the budget
      ([n + 2*jobs]).
    - {b circuit breaker} ([breaker]): the pool records one
      success/failure per delivered outcome; once the breaker trips
      ({!Breaker}) — or the respawn capacity is exhausted with work
      still queued — the pool returns {e early} with the undecided
      outcomes still [None] and [stats.gave_up] explaining why, instead
      of draining the queue as {!Lost}. The caller decides what
      degradation means (the campaign runner finishes the remainder
      serially).

    {b Chaos.} [chaos] threads a deterministic {!Chaos} fault schedule
    into the worker loop: scheduled faults fire after the task's "start"
    announcement (self-SIGKILL, self-SIGSTOP, torn/corrupt result frame,
    delayed completion), exercising exactly the failure paths above with
    placement that is a pure function of the seed.

    {b Determinism.} Results complete in any order; [on_ordered] replays
    them to the caller in task-index order as the contiguous completed
    prefix grows, which is what lets a caller with an append-only output
    (the campaign's JSONL checkpoint) stay byte-deterministic regardless
    of scheduling. *)

type outcome =
  | Done of Util.Json.t  (** the worker's result payload *)
  | Lost of string
      (** the worker died (signal, exit, OOM kill) or [work] raised;
          the string is the classified cause *)
  | Timed_out of float
      (** the watchdog SIGKILLed the worker after the task outlived this
          per-task deadline (the configured value, not the measured
          elapsed — outcomes must not depend on scheduling) *)

type stats = {
  forked : int;  (** workers forked, including respawns *)
  respawned : int;
  steals : int;  (** steal requests that reclaimed at least one task *)
  tasks_lost : int;
  timeouts : int;  (** tasks delivered as {!Timed_out} by the watchdog *)
  backoff_waits : int;  (** respawns that waited on the backoff ladder *)
  backoff_wait_s : float;  (** total scheduled backoff delay *)
  breaker_trips : int;  (** closed→open transitions of [breaker] *)
  gave_up : string option;
      (** [Some cause] when the pool returned early (breaker open or
          respawn capacity exhausted) with undecided outcomes left
          [None] *)
}

(** Number of usable cores ([Domain.recommended_domain_count]); what
    [--jobs 0] resolves to. Always >= 1. *)
val detect_jobs : unit -> int

(** [run ~jobs ~work tasks] executes [work tasks.(i)] for every [i] across
    [jobs] forked workers and returns one outcome per task ([None] only
    when [should_stop] or supervision ([stats.gave_up]) ended the run
    before the task was dispatched or finished), plus scheduling
    statistics.

    [work] runs in the worker process; it should be total — an escaping
    exception costs the task ({!Lost}). [worker_init] runs once in each
    fresh worker before any task (e.g. to reset inherited telemetry).
    [epilogue] runs in the worker at clean shutdown and its payload is
    delivered to [on_epilogue] in the parent — the channel for end-of-life
    aggregates like histogram state. [on_complete] fires in completion
    order (live progress); [on_ordered] fires in task order over the
    contiguous completed prefix. [should_stop] is polled between
    scheduling steps; when it turns true the pool kills its workers and
    returns with the undecided outcomes still [None].

    [task_deadline_s], [backoff], [breaker] and [chaos] are the
    supervision/chaos knobs described above. A [chaos] plan containing
    [Stall_self] faults needs a watchdog, or the stalled worker hangs
    the pool by design. [jobs] is clamped to [1 .. Array.length tasks].

    The pool temporarily ignores [SIGPIPE] (restored on exit) so a dying
    worker surfaces as [EPIPE]/EOF, never as a fatal signal.

    Telemetry: bumps [pool.respawns], [pool.timeouts],
    [pool.backoff_waits] and [pool.breaker_trips] counters (no-ops while
    telemetry is disabled). *)
val run :
  jobs:int ->
  ?max_chunk:int ->
  ?worker_init:(unit -> unit) ->
  ?epilogue:(unit -> Util.Json.t) ->
  ?on_epilogue:(Util.Json.t -> unit) ->
  ?on_complete:(int -> outcome -> unit) ->
  ?on_ordered:(int -> outcome -> unit) ->
  ?should_stop:(unit -> bool) ->
  ?task_deadline_s:float ->
  ?backoff:Backoff.t ->
  ?breaker:Breaker.t ->
  ?chaos:Chaos.plan ->
  work:(Util.Json.t -> Util.Json.t) ->
  Util.Json.t array ->
  outcome option array * stats
