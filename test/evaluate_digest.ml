(* A fingerprint of everything [Evaluate.evaluate] reports for one profile:
   every valid configuration under the default knobs, then the figure ladder
   under ablation knobs that change both the Partial-DOALL cutoff and the
   HELIX delta. Each report contributes every field, its per-loop rows in
   list order, and its floats by bit pattern, so a change in any formula, in
   the order of any float operation or in the order of [loops] shows as a
   changed digest. *)

let all_configs : Loopa.Config.t list =
  let open Loopa.Config in
  List.concat_map
    (fun model ->
      List.concat_map
        (fun reduc ->
          List.concat_map
            (fun dep ->
              List.filter_map
                (fun fn ->
                  match validate { model; reduc; dep; fn } with
                  | Ok c -> Some c
                  | Error _ -> None)
                [ Fn0; Fn1; Fn2; Fn3 ])
            [ Dep0; Dep1; Dep2; Dep3 ])
        [ Reduc0; Reduc1 ])
    [ Doall; Pdoall; Helix ]

let ablation_knobs =
  { Loopa.Evaluate.pdoall_cutoff = 0.5; helix_distance_normalized = true }

let add_report b (r : Loopa.Evaluate.report) =
  let add fmt = Printf.bprintf b fmt in
  add "config %s total %d parallel %h speedup %h coverage %h static %h truncated %b\n"
    (Loopa.Config.name r.Loopa.Evaluate.config)
    r.Loopa.Evaluate.total_cost r.Loopa.Evaluate.parallel_cost
    r.Loopa.Evaluate.speedup r.Loopa.Evaluate.coverage_pct
    r.Loopa.Evaluate.static_coverage_pct r.Loopa.Evaluate.truncated;
  List.iter
    (fun (l : Loopa.Evaluate.loop_result) ->
      add "loop %s %d header %d depth %d invs %d/%d cost %h -> %h deps %d conflicts %d iters %d %s\n"
        l.Loopa.Evaluate.fname l.Loopa.Evaluate.lid l.Loopa.Evaluate.header
        l.Loopa.Evaluate.depth l.Loopa.Evaluate.invocations
        l.Loopa.Evaluate.parallel_invocations l.Loopa.Evaluate.serial_cost
        l.Loopa.Evaluate.final_cost l.Loopa.Evaluate.mem_dep_manifestations
        l.Loopa.Evaluate.conflicting_iterations l.Loopa.Evaluate.total_iterations
        (Deptest.Analysis.verdict_to_string l.Loopa.Evaluate.static_verdict))
    r.Loopa.Evaluate.loops

let digest_of_reports (p : Loopa.Profile.profile) : string =
  let b = Buffer.create 65536 in
  List.iter (fun c -> add_report b (Loopa.Evaluate.evaluate p c)) all_configs;
  List.iter
    (fun c -> add_report b (Loopa.Evaluate.evaluate ~knobs:ablation_knobs p c))
    Loopa.Config.figure_ladder;
  Digest.to_hex (Digest.string (Buffer.contents b))
