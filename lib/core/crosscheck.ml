(* Soundness cross-validation of the static dependence tester against the
   dynamic detector: a loop the static side proved DOALL must never record a
   cross-iteration memory RAW at run time. Used in debug/test mode (the fuzz
   suite runs it on every random program).

   The profile must be collected WITHOUT pruning
   (Driver.profile_module ~static_prune:false); with pruning on, Proven_doall
   invocations skip address tracking, so an unsound verdict could hide from
   this check instead of being caught by it. *)

type violation = {
  fname : string;
  lid : int;
  header : int;
  inv_id : int;
  n_mem_deps : int; (* dynamic RAW manifestations the static side denied *)
}

let violation_to_string v =
  Printf.sprintf
    "%s/bb%d (loop %d, invocation %d): statically Proven_doall but %d dynamic memory \
     RAW manifestation(s)"
    v.fname v.header v.lid v.inv_id v.n_mem_deps

let check (p : Profile.profile) : violation list =
  let out = ref [] in
  Array.iter
    (fun (inv : Profile.inv) ->
      let fs = Classify.func_static p.Profile.ms inv.Profile.fname in
      let ls = fs.Classify.loops.(inv.Profile.lid) in
      match ls.Classify.dep.Deptest.Analysis.verdict with
      | Deptest.Analysis.Proven_doall
        when inv.Profile.n_mem_deps > 0 || inv.Profile.n_conflicts > 0
        ->
          out :=
            {
              fname = inv.Profile.fname;
              lid = inv.Profile.lid;
              header = ls.Classify.header;
              inv_id = inv.Profile.inv_id;
              n_mem_deps = inv.Profile.n_mem_deps;
            }
            :: !out
      | _ -> ())
    p.Profile.invs;
  List.rev !out

exception Unsound of string

(* Fail loudly on the first unsound Proven_doall verdict. *)
let check_exn (p : Profile.profile) : unit =
  match check p with
  | [] -> ()
  | vs ->
      raise
        (Unsound
           ("static dependence verdicts contradicted by execution:\n"
           ^ String.concat "\n" (List.map violation_to_string vs)))

(* ---- range soundness ----

   Every value a header phi takes at run time must lie inside the interval
   the dataflow range analysis proved for it. The profile must be collected
   with Driver ~observe_ranges:true so every header phi (not just the
   watched LCD set) reports its per-arrival values. *)

type range_violation = {
  fname : string;
  phi_id : int;
  observed : int64; (* a dynamic value outside the proven interval *)
  proven : Util.Interval.t;
}

let range_violation_to_string v =
  Printf.sprintf "%s/%%%d: observed value %Ld outside proven range %s" v.fname
    v.phi_id v.observed
    (Util.Interval.to_string v.proven)

let check_ranges (p : Profile.profile) : range_violation list =
  let out = ref [] in
  Hashtbl.iter
    (fun (fname, phi_id) (lo, hi) ->
      let fs = Classify.func_static p.Profile.ms fname in
      let proven = Dataflow.Range.itv_of_instr fs.Classify.ranges phi_id in
      let bad v =
        if not (Util.Interval.mem v proven) then
          out := { fname; phi_id; observed = v; proven } :: !out
      in
      bad lo;
      if hi <> lo then bad hi)
    p.Profile.phi_obs;
  !out

let check_ranges_exn (p : Profile.profile) : unit =
  match check_ranges p with
  | [] -> ()
  | vs ->
      raise
        (Unsound
           ("proven value ranges contradicted by execution:\n"
           ^ String.concat "\n" (List.map range_violation_to_string vs)))
