(** The perf-trajectory regression gate over bench snapshots.

    Snapshots (the [BENCH_quick.json] shape, or any nested JSON of numeric
    series) are flattened to dotted-path leaves; leaves whose key names a
    performance direction — [*_s]/[s] seconds (lower is better), [*_per_s]
    rates, [speedup]/[throughput] (higher is better) — become comparable
    series, everything else (counts, cores, flags) is skipped. A series
    regresses when it moves in the bad direction beyond its slack; tiny
    magnitudes below a per-class noise floor never regress. *)

type direction = Lower_better | Higher_better

val direction_to_string : direction -> string

type verdict = {
  v_path : string;  (** dotted path, list indices as numbers *)
  v_dir : direction;
  v_base : float;  (** old value *)
  v_new : float;
  v_slack : float;  (** allowed relative worsening (0.5 = +50%) *)
  v_worse_by : float;  (** relative worsening; negative = improved *)
  v_regressed : bool;
}

(** Compare series present in both snapshots. [tolerance] scales the
    per-class slack (seconds 50%, rates/speedups 35%); the default is
    deliberately generous — it passes identical snapshots and CI jitter,
    and fails a 2x slowdown. *)
val compare_snapshots :
  ?tolerance:float -> old_:Util.Json.t -> new_:Util.Json.t -> unit -> verdict list

val regressions : verdict list -> verdict list

(** Aligned text table of the verdicts (all, or regressions only). *)
val render : ?only_regressions:bool -> verdict list -> string

val to_json : verdict list -> Util.Json.t
