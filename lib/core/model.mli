(** Parallel execution-model cost functions (paper §II-C, §III-B). All costs
    are in dynamic IR instructions; all functions treat one loop invocation.
    The only copy of the DOALL, Partial-DOALL and HELIX formulas. *)

(** Partial-DOALL marks the loop sequential when more than this fraction of
    iterations trigger a phase restart (paper §III-B: 80%). *)
val pdoall_conflict_cutoff : float

(** One loop invocation. The arrays are read only up to the lengths the
    mutable fields give, so a caller can reuse one input, and its buffers,
    for every invocation it scores. *)
type input = {
  iter_costs : float array;
      (** per-iteration cost, already reduced by nested parallelism; entries
          [0, n_iters) are read *)
  mutable n_iters : int;
  mutable serial : float;
      (** the iteration costs summed in iteration order, starting from 0.0 *)
  mutable slowest : float;
      (** [Float.max] folded over the iteration costs in iteration order,
          starting from 0.0 *)
  conf_iter : int array;
      (** consumer iterations of the conflicts, strictly ascending; entries
          [0, n_conflicts) are read, here and in the two arrays below *)
  conf_delta : float array;  (** per conflict: stall delta (HELIX) *)
  conf_prod : int array;
      (** per conflict: most recent producer iteration (Partial-DOALL; a
          producer that committed in an earlier phase satisfies the read) *)
  mutable n_conflicts : int;
  mutable reg_sync_delta : float;
      (** largest per-iteration stall from register-LCD synchronization
          (dep1/dep2 under HELIX); 0 when none *)
  mutable serial_static : bool;
      (** the configuration renders this loop unconditionally sequential *)
}

(** [None] means the model cannot run this loop in parallel. *)
val doall_cost : input -> float option

(** [cutoff] overrides {!pdoall_conflict_cutoff} (ablation). *)
val pdoall_cost : ?cutoff:float -> input -> float option

(** [HELIX_time = iter_slowest + delta_largest * num_iter]. *)
val helix_cost : input -> float option

(** Model dispatch with the paper's serial cutoff: a "parallel" schedule
    that is not strictly faster than [serial] is reported as [None]. *)
val cost : ?pdoall_cutoff:float -> Config.model -> input -> float option
