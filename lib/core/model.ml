(* Parallel execution-model cost functions (paper §II-C, §III-B). All operate
   on one loop invocation's per-iteration costs (already reduced by nested
   parallelism) plus its conflicting iterations under the active
   configuration, sorted by consumer iteration. Costs are in dynamic IR
   instructions. A [None] result means the model cannot profit here and the
   loop stays serial. The functions read the arrays of an [input] only up to
   the lengths its mutable fields give, so a caller can score every
   invocation of an evaluation with one input. *)

(* Fraction of conflicting iterations above which Partial-DOALL gives up and
   marks the loop sequential (paper §III-B). *)
let pdoall_conflict_cutoff = 0.8

type input = {
  iter_costs : float array; (* entries [0, n_iters) are the iterations *)
  mutable n_iters : int;
  mutable serial : float; (* Σ iter_costs in iteration order, from 0.0 *)
  mutable slowest : float; (* Float.max over iter_costs in iteration order, from 0.0 *)
  (* conflicts [0, n_conflicts): strictly ascending consumer iterations,
     each with its stall delta (HELIX) and most recent producer iteration
     (Partial-DOALL) *)
  conf_iter : int array;
  conf_delta : float array;
  conf_prod : int array;
  mutable n_conflicts : int;
  (* largest per-iteration stall from register LCD synchronization (dep1/dep2
     under HELIX); 0 when none *)
  mutable reg_sync_delta : float;
  (* the configuration renders this loop unconditionally sequential (dep0
     with non-computable LCDs, a disallowed call, dep1 outside HELIX, ...) *)
  mutable serial_static : bool;
}

(* DOALL: all iterations start together; any manifesting conflict (or any
   unsupported construct) abandons parallel execution. *)
let doall_cost inp : float option =
  if inp.serial_static || inp.n_conflicts > 0 || inp.reg_sync_delta > 0.0 then None
  else if inp.n_iters <= 1 then None
  else Some inp.slowest

(* Partial-DOALL: phases of conflict-free parallel execution; a conflicting
   iteration re-starts at the end of the previous phase's slowest iteration.
   A read only conflicts while its producer iteration has not yet committed —
   producers from before the current phase's start committed at the phase
   boundary, so they are satisfied. Above the 80% restarting-iteration cutoff
   the loop is sequential. *)
let pdoall_cost ?(cutoff = pdoall_conflict_cutoff) inp : float option =
  let n = inp.n_iters in
  if inp.serial_static || inp.reg_sync_delta > 0.0 || n <= 1 then None
  else begin
    let cost = ref 0.0 and phase_max = ref 0.0 in
    let phase_start = ref 0 in
    let restarts = ref 0 in
    let next = ref 0 in
    for k = 0 to n - 1 do
      if !next < inp.n_conflicts && inp.conf_iter.(!next) = k then begin
        if inp.conf_prod.(!next) >= !phase_start && k > !phase_start then begin
          cost := !cost +. !phase_max;
          phase_max := 0.0;
          phase_start := k;
          incr restarts
        end;
        incr next
      end;
      phase_max := Float.max !phase_max inp.iter_costs.(k)
    done;
    if float_of_int !restarts > cutoff *. float_of_int n then None
    else Some (!cost +. !phase_max)
  end

(* HELIX-style: all iterations start together but synchronize;
   HELIX_time = iter_slowest + delta_largest * num_iter (paper §III-B). *)
let helix_cost inp : float option =
  let n = inp.n_iters in
  if inp.serial_static || n <= 1 then None
  else begin
    let delta_largest = ref inp.reg_sync_delta in
    for j = 0 to inp.n_conflicts - 1 do
      delta_largest := Float.max !delta_largest inp.conf_delta.(j)
    done;
    Some (inp.slowest +. (!delta_largest *. float_of_int n))
  end

let cost ?pdoall_cutoff (model : Config.model) inp : float option =
  let raw =
    match model with
    | Config.Doall -> doall_cost inp
    | Config.Pdoall -> pdoall_cost ?cutoff:pdoall_cutoff inp
    | Config.Helix -> helix_cost inp
  in
  (* A "parallel" execution slower than serial is reported serial. *)
  match raw with
  | Some c as parallel when c < inp.serial -> parallel
  | Some _ | None -> None
