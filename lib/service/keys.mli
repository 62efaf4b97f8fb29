(** Knob fingerprints for {!Cache} keys — one per cacheable verb. Every
    flag that can change the bytes of a cached result is folded in, so
    equal keys imply equal output; each fingerprint carries a version
    tag that is bumped when the pipeline or a renderer changes meaning. *)

val analyze :
  config:string -> fuel:int -> loops:int -> optimize:bool -> string

val sweep : fuel:int -> string

(** [budgets.watchdog_s] is deliberately excluded: it only shapes
    timeout ([Errored]) outcomes, and errored results are never
    cached. *)
val campaign :
  budgets:Campaign.Runner.budgets -> configs:Loopa.Config.t list -> string
