(** Statistics helpers for the experiment harness. *)

(** Geometric mean; values are clamped away from zero. [geomean [] = 1.0]
    (the neutral speedup). *)
val geomean : float list -> float

val mean : float list -> float

val minimum : float list -> float

val maximum : float list -> float

