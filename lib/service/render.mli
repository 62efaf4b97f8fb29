(** Canonical text renderers shared by the CLI and the result cache: a
    cached entry holds the returned string, so a warm run prints the
    bytes a cold run printed. Both renderers are deterministic for
    deterministic inputs (no clocks, no environment). *)

(** The [analyze] report: config/cost/speedup/coverage block, plus the
    [show_loops] costliest per-loop rows when positive. *)
val report : show_loops:int -> Loopa.Evaluate.report -> string

(** The end-of-campaign summary: per-target table, totals line (with
    resumed-from-checkpoint / served-from-cache notes), failure
    breakdown, per-config geomeans. Contains [wall_s] values, so two
    {e runs} differ textually even when their checkpoints normalize
    identically; a cached result replays the [wall_s] it was stored
    with. *)
val campaign_summary : Campaign.Runner.summary -> string
