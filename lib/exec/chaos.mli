(** Exec.Chaos — seeded, deterministic fault schedules for the
    execution stack.

    A {!plan} decides, per task index, whether the worker that picks the
    task up should be sabotaged — and, per checkpoint-write index,
    whether the write should fail — as a {b pure function of the seed}.
    Placement never depends on scheduling, wall time, or pids, so the
    same seed injects the same faults into the same tasks on every run:
    the chaos harness can assert byte-identical campaign outcomes across
    two runs, and a failure found under [chaos --seed N] is replayable
    from that one integer.

    Injection points (threaded through {!Pool} and the campaign runner):
    a worker-side hook fires the task fault {i after} the "start"
    announcement (so the parent's watchdog sees the in-flight task), and
    the runner's checkpoint writer consults {!ckpt_fault} per appended
    line. *)

type task_fault =
  | Kill_self  (** worker SIGKILLs itself — parent sees a dead worker *)
  | Stall_self
      (** worker SIGSTOPs itself — a silent hang only the watchdog can
          resolve *)
  | Torn_result
      (** worker writes a truncated result frame, then exits 1 — the
          parent's read raises [Ipc.Protocol_error] *)
  | Corrupt_result
      (** worker writes a full-length but unparseable frame, then
          exits 1 *)
  | Delay_result of float
      (** worker completes normally but sleeps first — shuffles
          completion order without losing anything *)

type ckpt_fault =
  | Eio
  | Enospc  (** simulated write errors on the JSONL checkpoint stream *)

(** Per-decision probabilities for {!seeded} plans, evaluated in the
    order kill, stall, torn, corrupt, delay (the sum of the task-fault
    rates should stay <= 1). [ckpt] applies independently per
    checkpoint-write index. *)
type rates = {
  kill : float;
  stall : float;
  torn : float;
  corrupt : float;
  delay : float;
  ckpt : float;
}

(** kill 0.10, stall 0.05, torn 0.05, corrupt 0.05, delay 0.10,
    ckpt 0.05. *)
val default_rates : rates

type plan

(** [seeded n] — fault placement from a splitmix64 hash of
    [(n, task index)]. *)
val seeded : ?rates:rates -> int -> plan

(** [explicit faults] — exact placement for tests: an association list
    from task index (position in the pool's fresh-task array) to fault,
    plus optionally from checkpoint-write index to write fault. *)
val explicit :
  ?ckpt_faults:(int * ckpt_fault) list -> (int * task_fault) list -> plan

(** The seed of a {!seeded} plan; [None] for {!explicit} ones. *)
val seed : plan -> int option

(** The fault scheduled for task index [i], if any. Pure. *)
val task_fault : plan -> int -> task_fault option

(** The fault scheduled for the [k]th checkpoint-write attempt. Pure. *)
val ckpt_fault : plan -> int -> ckpt_fault option

(** {2 Shard-scoped faults}

    A shard fault sabotages one shard of one sharded loop invocation in
    the guarded parallel runner — kill/stall/corrupt a shard {e mid-loop}.
    The runner translates the decision into a per-round {!explicit} task
    plan for the pool (task index = shard index), so the usual worker-side
    injection point fires while the shard executes its iteration range.
    Placement is keyed on hash lanes disjoint from the task/ckpt schedules:
    chaosing a campaign and chaosing its parallel loops never alias. *)

type shard_plan

(** Seeded placement over [(invocation, shard)] pairs, same rate ladder as
    {!seeded} (the [ckpt] rate is unused). *)
val shard_seeded : ?rates:rates -> int -> shard_plan

(** Exact placement for tests: [(invocation, shard)] — the runner's global
    sharded-invocation counter and the shard's index — to fault. *)
val shard_explicit : ((int * int) * task_fault) list -> shard_plan

(** The fault scheduled for shard [shard] of sharded invocation
    [invocation], if any. Pure. *)
val shard_fault : shard_plan -> invocation:int -> shard:int -> task_fault option

(** Planned shard-fault counts over invocations [0 .. invocations-1] and
    shards [0 .. shards-1], rendered as ["kill 2, stall 1, ..."]. *)
val shard_summary : shard_plan -> invocations:int -> shards:int -> string

(** True for faults that cost the task (kill, stall, torn, corrupt);
    [Delay_result] completes normally. *)
val lethal : task_fault -> bool

val fault_name : task_fault -> string

val ckpt_fault_name : ckpt_fault -> string

(** The exact loss cause the pool would report for this fault, byte
    identical to the reaper's string — what the runner records when it
    simulates a scheduled loss in degraded (serial) mode so checkpoints
    stay deterministic across the Forked/Serial boundary. [None] for
    [Stall_self] (surfaces as a watchdog timeout, not a loss) and
    [Delay_result]. *)
val simulated_lost_cause : task_fault -> string option

(** Planned fault counts over task indices [0 .. n-1] (and checkpoint
    writes [0 .. n-1]): [(name, count)] with names kill, stall, torn,
    corrupt, delay, ckpt-fail. *)
val planned_counts : plan -> n:int -> (string * int) list

(** [planned_counts] rendered as ["kill 2, stall 1, ..."]. *)
val summary : plan -> n:int -> string
