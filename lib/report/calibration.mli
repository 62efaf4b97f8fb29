(** Rendering for guarded-execution calibration reports: one line per
    [Proven_doall] loop comparing the speedup the cost model predicted for
    DOALL parallelisation against the speedup the guarded parallel runtime
    actually measured. The parrun layer fills in the rows; this module only
    formats them, so the report library stays independent of the runtime. *)

(** One calibration line per [Proven_doall] loop (eligible or not). *)
type row = {
  fname : string;
  lid : int;
  header : int;
  eligible : bool;
  why : string;  (** ineligibility reason, [""] when eligible *)
  invocations : int;
  sharded : int;
  committed : int;
  rollbacks : int;
  conflicts : int;
  quarantined : bool;
  serial_s : float;  (** wall seconds in the serial pass *)
  parallel_s : float;
      (** wall seconds in the parallel pass: delegate time (sharding,
          commit, failed attempts) plus serial fallback time *)
  measured : float option;
      (** serial/parallel wall ratio, only when at least one invocation
          committed and both walls are positive *)
  predicted : float option;
      (** the cost model's DOALL speedup for this loop
          ([reduc1-dep0-fn1 DOALL] serial/final cost ratio) *)
}

(** Aligned text table, one row per loop, with a trailing ratio column
    (measured / predicted) when both are present. *)
val render : row list -> string

val to_csv : row list -> string

(** Side-by-side log-scale bars of predicted vs measured speedup for the
    loops where both exist; empty string when none qualify. *)
val chart : ?width:int -> row list -> string

val row_to_json : row -> Util.Json.t
