(* Configuration evaluation over a collected profile: bottom-up over the
   dynamic loop-invocation tree (children were created after their parents,
   so a reverse index walk sees every child before its parent), reducing
   iteration costs by nested savings, applying the execution model at each
   level, and propagating savings and coverage upward (paper §III-B: "the
   loop execution cost ... is then propagated up to the nest of parent loops
   and functions"). *)

type loop_result = {
  fname : string;
  lid : int;
  header : int;
  depth : int;
  invocations : int;
  parallel_invocations : int;
  serial_cost : float; (* Σ over invocations, nested savings included *)
  final_cost : float;
  mem_dep_manifestations : int;
  conflicting_iterations : int;
  total_iterations : int;
  static_verdict : Deptest.Analysis.verdict; (* the compile-time side's call *)
}

type report = {
  config : Config.t;
  total_cost : int; (* serial program cost: dynamic IR instructions *)
  parallel_cost : float;
  speedup : float;
  coverage_pct : float; (* % of dynamic instructions inside parallel loops *)
  static_coverage_pct : float;
      (* % of dynamic instructions inside loops the static dependence tester
         proved DOALL — the static-vs-dynamic parallelism gap, configuration
         independent *)
  truncated : bool;
      (* the underlying profile covers a budget-truncated prefix of the
         program: speedups are over the executed prefix only *)
  loops : loop_result list; (* sorted by serial cost, descending *)
}

(* Does [mask] contain a call class that configuration [fn] cannot
   parallelize over? *)
let call_violation (fn : Config.fn) mask =
  let open Profile in
  match fn with
  | Config.Fn0 -> mask <> 0
  | Config.Fn1 ->
      mask land (mask_threadsafe_builtin lor mask_unsafe_builtin lor mask_user) <> 0
  | Config.Fn2 -> mask land mask_unsafe_builtin <> 0
  | Config.Fn3 -> false

(* Is this register LCD in the effective non-computable set for [reduc]? *)
let track_active (reduc : Config.reduc) (tr : Profile.reg_track) =
  match (tr.Profile.cls, reduc) with
  | Classify.Reduction _, Config.Reduc1 -> false
  | Classify.Reduction _, Config.Reduc0 -> true
  | Classify.Non_computable, _ -> true
  | Classify.Computable, _ -> false (* never watched, defensive *)

(* Ablation knobs; the defaults are the paper's model (DESIGN.md §4). *)
type knobs = {
  pdoall_cutoff : float; (* Partial-DOALL restart fraction before serial *)
  helix_distance_normalized : bool;
      (* divide each memory stall delta by its dependence distance instead of
         charging the raw producer/consumer offset difference every iteration *)
}

let default_knobs =
  { pdoall_cutoff = Model.pdoall_conflict_cutoff; helix_distance_normalized = false }

(* Model-evaluation telemetry: invocations scored per execution model,
   invocations the model actually parallelized, conflicting-iteration totals,
   and the speedup distribution across configurations. *)
let c_doall_scored = Obs.Telemetry.counter "model.doall.scored"

let c_pdoall_scored = Obs.Telemetry.counter "model.pdoall.scored"

let c_helix_scored = Obs.Telemetry.counter "model.helix.scored"

let c_parallel_invs = Obs.Telemetry.counter "model.parallel_invocations"

let c_conflict_iters = Obs.Telemetry.counter "model.conflicting_iterations"

let h_speedup = Obs.Telemetry.histogram "evaluate.speedup"

(* Marks an iteration without a conflict in the merge area. It is below
   every producer index, so merging into an empty entry needs no case of
   its own. *)
let no_conflict = min_int

(* A stall inside iteration [k] shrinks with the iteration's reduction. *)
let[@inline] stall_scale (raw_costs : float array) (reduced : float array) k =
  let raw = raw_costs.(k) in
  if raw > 0.0 then reduced.(k) /. raw else 1.0

(* One reverse pass over the invocations scores every one of them. It works
   in arrays allocated once per call: it hashes nothing and looks nothing up
   by name. Per invocation it allocates only the model's result, the boxed
   float fields of its input and, when the invocation has memory conflicts,
   the closure that reads them. Every float operation runs in a fixed order:
   iteration costs are summed in iteration order, savings and coverage
   accumulate in reverse invocation order, and per-loop sums in invocation
   order (DESIGN.md §4). test/golden/evaluate_digests.json pins the reports
   bit for bit. *)
let evaluate ?(knobs = default_knobs) (p : Profile.profile) (config : Config.t) :
    report =
  Obs.Telemetry.with_span "evaluate" ~attrs:[ ("config", Config.name config) ]
  @@ fun () ->
  let invs = p.Profile.invs in
  let n = Array.length invs in
  (* Layout. A function's static facts are resolved at its first invocation,
     and its loops take consecutive slots from [slot_base]. An invocation
     with children owns one entry per iteration of the flat [savings] array,
     from [sav_off]. *)
  let n_funcs = ref 0 and max_iters = ref 0 in
  Array.iter
    (fun (inv : Profile.inv) ->
      n_funcs := Int.max !n_funcs (inv.Profile.fid + 1);
      max_iters := Int.max !max_iters (Profile.n_iters inv))
    invs;
  let slot_base = Array.make !n_funcs (-1) in
  let func_loops = ref [] and n_slots = ref 0 in
  let sav_off = Array.make n (-1) and n_sav = ref 0 in
  Array.iter
    (fun (inv : Profile.inv) ->
      if slot_base.(inv.Profile.fid) < 0 then begin
        let fs = Classify.func_static p.Profile.ms inv.Profile.fname in
        slot_base.(inv.Profile.fid) <- !n_slots;
        n_slots := !n_slots + Array.length fs.Classify.loops;
        func_loops := fs.Classify.loops :: !func_loops
      end;
      let par = inv.Profile.parent in
      if par >= 0 && sav_off.(par) < 0 then begin
        sav_off.(par) <- !n_sav;
        n_sav := !n_sav + Profile.n_iters invs.(par)
      end)
    invs;
  let slot_static = Array.concat (List.rev !func_loops) in
  let slot (inv : Profile.inv) = slot_base.(inv.Profile.fid) + inv.Profile.lid in
  let savings = Array.make !n_sav 0.0 in
  let child_covered = Array.make n 0.0 and child_static = Array.make n 0.0 in
  let final = Array.make n 0.0 and loop_serial = Array.make n 0.0 in
  let is_parallel = Array.make n false in
  (* Per-invocation scratch, sized by the longest invocation: the raw and
     reduced iteration costs; the conflicts merged by consumer iteration;
     and the same conflicts in ascending order, as the model reads them. *)
  let raw_costs = Array.make !max_iters 0.0 in
  let reduced = Array.make !max_iters 0.0 in
  let merged_delta = Array.make !max_iters 0.0 in
  let merged_prod = Array.make !max_iters no_conflict in
  let conf_iter = Array.make !max_iters 0 in
  let conf_delta = Array.make !max_iters 0.0 in
  let conf_prod = Array.make !max_iters 0 in
  let inp =
    {
      Model.iter_costs = reduced;
      n_iters = 0;
      serial = 0.0;
      slowest = 0.0;
      conf_iter;
      conf_delta;
      conf_prod;
      n_conflicts = 0;
      reg_sync_delta = 0.0;
      serial_static = false;
    }
  in
  let prog_savings = ref 0.0 and prog_covered = ref 0.0 in
  let prog_static = ref 0.0 in
  let n_parallel = ref 0 and n_conflicting = ref 0 in
  let model = config.Config.model in
  let pdoall_cutoff = Some knobs.pdoall_cutoff in
  for id = n - 1 downto 0 do
    let inv = invs.(id) in
    let starts = inv.Profile.iter_starts in
    let ni = Ir.Vec.length starts in
    let raw_total = float_of_int (inv.Profile.end_clock - inv.Profile.start_clock) in
    (* Reduced iteration costs: each iteration's raw cost less the savings
       of the children that ran in it. Each iteration's end is the next
       one's start, so the loop reads every start once. *)
    let off = sav_off.(id) in
    let serial_reduced = ref 0.0 and slowest = ref 0.0 and saved = ref 0.0 in
    let start = ref (if ni > 0 then Ir.Vec.get starts 0 else 0) in
    for k = 0 to ni - 1 do
      let next = if k + 1 < ni then Ir.Vec.get starts (k + 1) else inv.Profile.end_clock in
      let raw = float_of_int (next - !start) in
      raw_costs.(k) <- raw;
      start := next;
      let c =
        if off < 0 then raw
        else begin
          let s = savings.(off + k) in
          saved := !saved +. s;
          raw -. s
        end
      in
      reduced.(k) <- c;
      serial_reduced := !serial_reduced +. c;
      slowest := Float.max !slowest c
    done;
    let serial_reduced = !serial_reduced in
    let overall_scale = if raw_total > 0.0 then serial_reduced /. raw_total else 1.0 in
    (* Memory conflicts apply under every model. *)
    let merged = ref (inv.Profile.n_conflicts > 0) in
    for i = 0 to inv.Profile.n_conflicts - 1 do
      let k = Profile.conflict_iter inv i and prod = Profile.conflict_prod inv i in
      let delta = float_of_int (Profile.conflict_delta inv i) in
      let delta =
        if knobs.helix_distance_normalized && k > prod then
          delta /. float_of_int (k - prod)
        else delta
      in
      merged_delta.(k) <- delta *. stall_scale raw_costs reduced k;
      merged_prod.(k) <- prod
    done;
    (* Register LCDs in the effective non-computable set under the reduc
       flag. *)
    let serial_static = ref (call_violation config.Config.fn inv.Profile.call_mask) in
    let reg_sync_delta = ref 0.0 in
    let tracks = inv.Profile.tracks in
    for t = 0 to Array.length tracks - 1 do
      let tr = tracks.(t) in
      if track_active config.Config.reduc tr then
        match config.Config.dep with
        | Config.Dep0 -> serial_static := true
        | Config.Dep1 -> (
            (* Lowered to memory: a frequent dependency every iteration. Only
               HELIX synchronization supports that; elsewhere it
               serializes. *)
            match model with
            | Config.Helix ->
                reg_sync_delta :=
                  Float.max !reg_sync_delta (tr.Profile.max_delta_all *. overall_scale)
            | Config.Doall | Config.Pdoall -> serial_static := true)
        | Config.Dep2 ->
            (* Mispredicted instances manifest; predicted ones are free. *)
            let misses = tr.Profile.mispredict_iters in
            (match model with
            | Config.Helix ->
                if Ir.Vec.length misses > 0 then
                  reg_sync_delta :=
                    Float.max !reg_sync_delta
                      (tr.Profile.max_delta_mispredict *. overall_scale)
            | Config.Doall | Config.Pdoall -> ());
            for i = 0 to Ir.Vec.length misses - 1 do
              let k = Ir.Vec.get misses i in
              let d = tr.Profile.max_delta_mispredict *. stall_scale raw_costs reduced k in
              merged_delta.(k) <- Float.max merged_delta.(k) d;
              (* register LCD instances always come from the previous
                 iteration *)
              merged_prod.(k) <- Int.max merged_prod.(k) (k - 1);
              merged := true
            done
        | Config.Dep3 -> ()
    done;
    (* Hand the merged conflicts to the model in ascending order, clearing
       the merge area behind them. *)
    let nc = ref 0 in
    if !merged then
      for k = 0 to ni - 1 do
        let prod = merged_prod.(k) in
        if prod <> no_conflict then begin
          conf_iter.(!nc) <- k;
          conf_delta.(!nc) <- merged_delta.(k);
          conf_prod.(!nc) <- prod;
          incr nc;
          merged_delta.(k) <- 0.0;
          merged_prod.(k) <- no_conflict
        end
      done;
    n_conflicting := !n_conflicting + !nc;
    inp.Model.n_iters <- ni;
    inp.Model.serial <- serial_reduced;
    inp.Model.slowest <- !slowest;
    inp.Model.n_conflicts <- !nc;
    inp.Model.reg_sync_delta <- !reg_sync_delta;
    inp.Model.serial_static <- !serial_static;
    let model_cost = Model.cost ?pdoall_cutoff model inp in
    let f =
      match model_cost with Some c -> Float.min c serial_reduced | None -> serial_reduced
    in
    let parallel = match model_cost with Some c -> c < serial_reduced | None -> false in
    final.(id) <- f;
    is_parallel.(id) <- parallel;
    if parallel then incr n_parallel;
    loop_serial.(id) <- (if off < 0 then raw_total else raw_total -. !saved);
    let covered = if parallel then raw_total else child_covered.(id) in
    let static_covered =
      match slot_static.(slot inv).Classify.dep.Deptest.Analysis.verdict with
      | Deptest.Analysis.Proven_doall -> raw_total
      | Deptest.Analysis.Proven_lcd _ | Deptest.Analysis.Unknown -> child_static.(id)
    in
    (* Propagate savings and coverage to the parent. *)
    let saving = raw_total -. f in
    let par = inv.Profile.parent in
    if par >= 0 then begin
      let j = sav_off.(par) + inv.Profile.parent_iter in
      savings.(j) <- savings.(j) +. saving;
      child_covered.(par) <- child_covered.(par) +. covered;
      child_static.(par) <- child_static.(par) +. static_covered
    end
    else begin
      prog_savings := !prog_savings +. saving;
      prog_covered := !prog_covered +. covered;
      prog_static := !prog_static +. static_covered
    end
  done;
  Obs.Telemetry.add
    (match model with
    | Config.Doall -> c_doall_scored
    | Config.Pdoall -> c_pdoall_scored
    | Config.Helix -> c_helix_scored)
    n;
  Obs.Telemetry.add c_parallel_invs !n_parallel;
  Obs.Telemetry.add c_conflict_iters !n_conflicting;
  (* Aggregate per static loop, in invocation order. *)
  let n_slots = Array.length slot_static in
  let l_invocations = Array.make n_slots 0 and l_parallel = Array.make n_slots 0 in
  let l_serial = Array.make n_slots 0.0 and l_final = Array.make n_slots 0.0 in
  let l_deps = Array.make n_slots 0 and l_conflicting = Array.make n_slots 0 in
  let l_iters = Array.make n_slots 0 in
  let firsts = Array.make n_slots 0 and n_loops = ref 0 in
  for id = 0 to n - 1 do
    let inv = invs.(id) in
    let s = slot inv in
    if l_invocations.(s) = 0 then begin
      firsts.(!n_loops) <- id;
      incr n_loops
    end;
    l_invocations.(s) <- l_invocations.(s) + 1;
    if is_parallel.(id) then l_parallel.(s) <- l_parallel.(s) + 1;
    l_serial.(s) <- l_serial.(s) +. loop_serial.(id);
    l_final.(s) <- l_final.(s) +. final.(id);
    l_deps.(s) <- l_deps.(s) + inv.Profile.n_mem_deps;
    l_conflicting.(s) <- l_conflicting.(s) + inv.Profile.n_conflicts;
    l_iters.(s) <- l_iters.(s) + Profile.n_iters inv
  done;
  (* Rows enter the table in first-invocation order and leave it in the
     table's fold order; the stable sort keeps that order among equal
     costs. *)
  let by_loop = Hashtbl.create 32 in
  for i = 0 to !n_loops - 1 do
    let inv = invs.(firsts.(i)) in
    let s = slot inv in
    let ls = slot_static.(s) in
    Hashtbl.replace by_loop
      (inv.Profile.fname, inv.Profile.lid)
      {
        fname = inv.Profile.fname;
        lid = inv.Profile.lid;
        header = ls.Classify.header;
        depth = ls.Classify.depth;
        invocations = l_invocations.(s);
        parallel_invocations = l_parallel.(s);
        serial_cost = l_serial.(s);
        final_cost = l_final.(s);
        mem_dep_manifestations = l_deps.(s);
        conflicting_iterations = l_conflicting.(s);
        total_iterations = l_iters.(s);
        static_verdict = ls.Classify.dep.Deptest.Analysis.verdict;
      }
  done;
  let loops =
    Hashtbl.fold (fun _ r acc -> r :: acc) by_loop []
    |> List.sort (fun a b -> Float.compare b.serial_cost a.serial_cost)
  in
  let total = p.Profile.total_cost in
  let parallel_cost = Float.max 1.0 (float_of_int total -. !prog_savings) in
  let speedup = float_of_int total /. parallel_cost in
  Obs.Telemetry.observe h_speedup speedup;
  {
    config;
    total_cost = total;
    parallel_cost;
    speedup;
    truncated = p.Profile.truncated;
    coverage_pct =
      (if total > 0 then 100.0 *. !prog_covered /. float_of_int total else 0.0);
    static_coverage_pct =
      (if total > 0 then 100.0 *. !prog_static /. float_of_int total else 0.0);
    loops;
  }
