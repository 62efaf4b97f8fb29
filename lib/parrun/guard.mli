(** The guarded-execution driver: run a program twice — serial reference,
    then parallel with the {!Runner} delegate installed — and prove the
    outcomes byte-identical. The serial pass times every eligible loop, so
    the comparison doubles as a calibration measurement: measured parallel
    speedup per loop against the cost model's predicted DOALL speedup. *)

(** How a pass ended. Budget truncation is a normal {!Interp.Machine.outcome};
    a program trap is captured (not re-raised) so the two passes can be
    compared on the trapping prefix too. *)
type run_outcome =
  | Finished of Interp.Machine.outcome
  | Trapped of { msg : string; clock : int; output : string }

type result = {
  target : string;
  serial : run_outcome;
  parallel : run_outcome;
  identical : bool;  (** byte-identical outcomes (floats compared bitwise) *)
  diffs : string list;  (** human-readable divergence descriptions *)
  rows : Report.Calibration.row list;  (** sorted by (fname, lid) *)
  runner : Runner.t;
      (** the parallel pass's runner: conflicts, quarantine, loop stats *)
  serial_wall : float;  (** whole-program wall seconds, serial pass *)
  parallel_wall : float;
}

(** A classified failure for a diverging guarded run
    ([parrun:divergence@<target>:<hash8>]). *)
val divergence_failure :
  target:string -> source:string -> string list -> Loopa.Driver.failure

(** Compile, prepare, and run the guarded comparison. [predict] (default
    true) additionally profiles the program once more to score the
    [DOALL] cost model per loop; pass false to skip that third pass.
    Compile/prepare/internal errors, an exception from the cost model
    included, come back as classified failures;
    divergence does {e not} — inspect [identical]/[diffs]. *)
val run :
  ?knobs:Runner.knobs ->
  ?quarantine:Quarantine.t ->
  ?repro_dir:string ->
  ?fuel:int ->
  ?predict:bool ->
  target:string ->
  string ->
  (result, Loopa.Driver.failure) Stdlib.result

(** Replay a [Parrun]-stage bundle: re-run the guarded comparison with an
    empty quarantine and aggressive sharding (jobs 2, min_trip 1) and
    check the recorded conflict re-manifests under the same fingerprint. *)
val replay : Repro.Bundle.t -> Repro.Pipeline.verdict
