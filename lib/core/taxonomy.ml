(* Table I census: classify every ordering constraint observed in a profile
   into the paper's taxonomy, for reporting. Frequency thresholds fixed
   here: a dependency that manifests in at least half of a loop's iterations
   is "frequent"; a register LCD whose hybrid predictor misses at most 10% of
   instances is "predictable". *)

let frequent_fraction = 0.5

let predictable_miss_fraction = 0.10

type census = {
  mutable reg_computable : int; (* IVs & MIVs: static count of phis *)
  mutable reg_reduction : int;
  mutable reg_predictable : int; (* dynamic judgement over non-computables *)
  mutable reg_unpredictable : int;
  mutable mem_frequent_loops : int; (* loop invocations with frequent mem LCDs *)
  mutable mem_infrequent_loops : int; (* ... with only infrequent mem LCDs *)
  mutable mem_clean_loops : int; (* invocations with no mem LCD at all *)
  mutable loops_with_calls : int; (* structural: call-stack constraint *)
  mutable total_invocations : int;
}

let empty () =
  {
    reg_computable = 0;
    reg_reduction = 0;
    reg_predictable = 0;
    reg_unpredictable = 0;
    mem_frequent_loops = 0;
    mem_infrequent_loops = 0;
    mem_clean_loops = 0;
    loops_with_calls = 0;
    total_invocations = 0;
  }

(* Static register-LCD census over the classified module. *)
let add_static (c : census) (ms : Classify.module_static) =
  Hashtbl.iter
    (fun _ fs ->
      Array.iter
        (fun ls ->
          Array.iter
            (fun (pi : Classify.phi_info) ->
              match pi.Classify.cls with
              | Classify.Computable -> c.reg_computable <- c.reg_computable + 1
              | Classify.Reduction _ -> c.reg_reduction <- c.reg_reduction + 1
              | Classify.Non_computable -> () (* judged dynamically below *))
            ls.Classify.phis)
        fs.Classify.loops)
    ms.Classify.funcs

(* Dynamic census over one profile. Non-computable register LCDs are judged
   per static phi across all invocations. *)
let add_profile (c : census) (p : Profile.profile) =
  add_static c p.Profile.ms;
  (* register predictability, aggregated per static phi *)
  let agg = Hashtbl.create 32 in
  Array.iter
    (fun inv ->
      Array.iter
        (fun tr ->
          if tr.Profile.cls = Classify.Non_computable then begin
            let key = (inv.Profile.fname, tr.Profile.phi_id) in
            let inst, miss =
              Option.value ~default:(0, 0) (Hashtbl.find_opt agg key)
            in
            Hashtbl.replace agg key
              (inst + tr.Profile.n_instances, miss + tr.Profile.n_mispredicts)
          end)
        inv.Profile.tracks)
    p.Profile.invs;
  Hashtbl.iter
    (fun _ (inst, miss) ->
      if inst = 0 || float_of_int miss <= predictable_miss_fraction *. float_of_int inst
      then c.reg_predictable <- c.reg_predictable + 1
      else c.reg_unpredictable <- c.reg_unpredictable + 1)
    agg;
  (* memory LCD frequency per invocation *)
  Array.iter
    (fun inv ->
      c.total_invocations <- c.total_invocations + 1;
      let n = Profile.n_iters inv in
      let conflicting = inv.Profile.n_conflicts in
      if conflicting = 0 then c.mem_clean_loops <- c.mem_clean_loops + 1
      else if float_of_int conflicting >= frequent_fraction *. float_of_int n then
        c.mem_frequent_loops <- c.mem_frequent_loops + 1
      else c.mem_infrequent_loops <- c.mem_infrequent_loops + 1;
      if inv.Profile.call_mask <> 0 then c.loops_with_calls <- c.loops_with_calls + 1)
    p.Profile.invs;
  c

let of_profile p = add_profile (empty ()) p

let pp ppf c =
  Format.fprintf ppf
    "@[<v>register LCDs: %d computable (IV/MIV), %d reduction, %d predictable, %d \
     unpredictable@,\
     loop invocations: %d total; mem LCDs: %d frequent, %d infrequent, %d none; %d \
     with calls@]"
    c.reg_computable c.reg_reduction c.reg_predictable c.reg_unpredictable
    c.total_invocations c.mem_frequent_loops c.mem_infrequent_loops c.mem_clean_loops
    c.loops_with_calls
