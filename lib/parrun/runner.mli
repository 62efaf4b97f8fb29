(** Guarded parallel DOALL execution — the tentpole of the parrun layer.

    The runner installs an {!Interp.Machine.set_delegate} hook that, on a
    fresh entry to an eligible [Proven_doall] loop, shards the iteration
    space across {!Exec.Pool} workers (fork gives every shard a
    copy-on-write snapshot of exact loop-entry state), collects each
    shard's register dump, write runs and exposed reads, and — only if
    the parent-side {!Conflict} detector finds the shards independent —
    commits the combined whole-loop effect back to the machine. Any
    conflict, shard loss, timeout, trap or validation failure discards
    every shard result and falls back to in-parent serial execution of the
    untouched loop (rollback is free: shards never mutate parent state).

    Detected conflicts additionally quarantine the loop's verdict
    ({!Quarantine}) and, when [repro_dir] is set, emit a replayable
    misprediction bundle via [Repro.Bundle]. Shard loss and timeouts roll
    back {e without} quarantining: they indict the infrastructure, not the
    verdict.

    Eligibility is static and decided once at {!create}: canonical loops
    whose header phis are affine IVs, loop-invariant, or integer
    reductions, whose bodies allocate nothing and call nothing impure, and
    whose reduction values feed nothing but their own accumulation chains
    (a tainted branch, store or call would make clock or memory effects
    depend on the running value, breaking byte-identity under reassociated
    partial accumulation). *)

type knobs = {
  jobs : int;  (** shards per invocation; < 2 disables sharding *)
  min_trip : int;
      (** smallest known body count worth forking a pool for *)
  round_chunk : int;
      (** per-shard bodies in the first round when the trip is unknown;
          subsequent rounds grow geometrically *)
  max_rounds : int;  (** unknown-trip rounds before giving up (rollback) *)
  max_shard_writes : int;
      (** per-shard distinct-written-words cap; beyond it the shard
          reports overflow and the invocation rolls back *)
  watchdog_s : float option;
      (** per-shard wall deadline, handed to [Exec.Pool] as
          [task_deadline_s]; a stalled shard times out and rolls back *)
  faults : ((int * int) * Exec.Pool.fault) list;
      (** shard faults for tests, default none: [((d, sh), f)] has shard
          [sh] of the runner's [d]th pool dispatch (counted from 0 over
          every round of every invocation) fire [f]. A [Stall_self] needs
          [watchdog_s]. *)
}

val default_knobs : knobs

(** Per-loop counters, updated as the delegate runs. *)
type loop_stats = {
  st_fname : string;
  st_lid : int;
  st_header : int;
  mutable st_invocations : int;  (** fresh entries offered to the delegate *)
  mutable st_declined : int;
      (** entries run serially without forking (small trip, non-integer
          entry state, quarantined, ...) *)
  mutable st_sharded : int;  (** invocations dispatched to the pool *)
  mutable st_committed : int;
  mutable st_rollbacks : int;  (** sharded invocations re-run serially *)
  mutable st_conflicts : int;  (** rollbacks caused by detected conflicts *)
  mutable st_shard_failures : int;
      (** lost / timed-out / trapped / overflowed shards observed *)
  mutable st_rounds : int;
  mutable st_shards : int;  (** shard tasks dispatched *)
  mutable st_par_wall : float;
      (** wall seconds spent inside the delegate (sharding attempts,
          successful or not) *)
}

(** A detected conflict: what was quarantined and where the repro bundle
    landed. *)
type conflict_record = {
  cf_fingerprint : string;
  cf_fname : string;
  cf_lid : int;
  cf_header : int;
  cf_message : string;
  cf_bundle : string option;
}

(** What a shard worker hands back through the pool, as a plain value:
    how its iteration range ended and its whole effect. *)
type shard_report = {
  sr_status : string;  (** ok | trap | budget | error | overflow *)
  sr_msg : string;  (** why, when not ok *)
  sr_iters : int;  (** completed loop bodies *)
  sr_exit : (int * int) option;  (** the exit edge, when the loop left *)
  sr_clock : int;  (** instructions the range retired *)
  sr_accesses : int;
  sr_output : string;
  sr_regs : (int * Interp.Rvalue.rv) list;
      (** the loop's result registers, when ok *)
  sr_writes : (int * Interp.Rvalue.rv array) list;
      (** the words the shard wrote, when ok, as runs in address order:
          each run's first address and the final values of its
          consecutive words. A failed shard ships none: it ends the
          round's live prefix, so no later shard is checked against its
          writes *)
  sr_rd : Conflict.ranges;  (** the words it read before writing them *)
}

type t

(** [create ~target ~source ms] scans every [Proven_doall] loop of the
    prepared module for eligibility. [quarantine] (default: empty) carries
    verdicts banned by earlier runs; [repro_dir] enables bundle emission
    on conflicts. *)
val create :
  ?knobs:knobs ->
  ?quarantine:Quarantine.t ->
  ?repro_dir:string ->
  target:string ->
  source:string ->
  Loopa.Classify.module_static ->
  t

(** Install the delegate on a machine. The machine must use default
    (unpruned) watch plans. *)
val install : t -> Interp.Machine.t -> unit

val knobs : t -> knobs
val quarantine : t -> Quarantine.t

(** Conflicts detected so far, in detection order. *)
val conflicts : t -> conflict_record list

(** Stats for every eligible loop (also covers loops never entered),
    sorted by (fname, lid). *)
val loop_stats : t -> loop_stats list

(** Eligibility outcome for every [Proven_doall] loop:
    [Ok fingerprint] or [Error reason], sorted by (fname, lid).

    The runner also feeds [Obs.Telemetry] counters live as it runs:
    [parrun.invocations], [parrun.sharded], [parrun.committed],
    [parrun.rollbacks], [parrun.conflicts], [parrun.quarantined],
    [parrun.shards], [parrun.rounds]. *)
val eligibility : t -> ((string * int) * (string, string) result) list
