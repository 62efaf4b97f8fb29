(* Canonical text renderers for analysis results. Output is built into a
   string (never printed here) so the same bytes can go to stdout or into
   a cache entry, and a warm hit replays exactly what a cold run printed. *)

let report ~show_loops (r : Loopa.Evaluate.report) : string =
  let b = Buffer.create 512 in
  let pf fmt = Printf.bprintf b fmt in
  pf "config        : %s\n" (Loopa.Config.name r.Loopa.Evaluate.config);
  if r.Loopa.Evaluate.truncated then
    pf "truncated     : yes — a budget ran out; results cover the executed prefix\n";
  pf "serial cost   : %d dynamic IR instructions\n" r.Loopa.Evaluate.total_cost;
  pf "parallel cost : %.0f\n" r.Loopa.Evaluate.parallel_cost;
  pf "limit speedup : %.2fx\n" r.Loopa.Evaluate.speedup;
  pf "coverage      : %.1f%% of instructions inside parallel loops\n"
    r.Loopa.Evaluate.coverage_pct;
  pf "static doall  : %.1f%% of instructions inside statically proven loops\n"
    r.Loopa.Evaluate.static_coverage_pct;
  if show_loops > 0 then begin
    let t =
      Report.Table.create
        [ "loop"; "depth"; "invocations"; "parallel"; "serial"; "final"; "speedup" ]
    in
    List.iteri
      (fun i (l : Loopa.Evaluate.loop_result) ->
        if i < show_loops then
          Report.Table.add_row t
            [
              Printf.sprintf "%s/bb%d" l.Loopa.Evaluate.fname l.Loopa.Evaluate.header;
              string_of_int l.Loopa.Evaluate.depth;
              string_of_int l.Loopa.Evaluate.invocations;
              string_of_int l.Loopa.Evaluate.parallel_invocations;
              Printf.sprintf "%.0f" l.Loopa.Evaluate.serial_cost;
              Printf.sprintf "%.0f" l.Loopa.Evaluate.final_cost;
              Printf.sprintf "%.2fx"
                (l.Loopa.Evaluate.serial_cost /. Float.max 1.0 l.Loopa.Evaluate.final_cost);
            ])
      r.Loopa.Evaluate.loops;
    pf "\n%s\n" (Report.Table.render t)
  end;
  Buffer.contents b

let campaign_summary (s : Campaign.Runner.summary) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.bprintf b fmt in
  let t = Report.Table.create [ "target"; "status"; "attempts"; "instrs"; "wall s" ] in
  List.iter
    (fun (r : Campaign.Runner.result) ->
      Report.Table.add_row t
        [
          r.Campaign.Runner.target;
          Campaign.Runner.status_to_string r.Campaign.Runner.status;
          string_of_int r.Campaign.Runner.attempts;
          string_of_int r.Campaign.Runner.clock;
          Printf.sprintf "%.2f" r.Campaign.Runner.wall_s;
        ])
    s.Campaign.Runner.results;
  pf "%s\n" (Report.Table.render t);
  let notes =
    (if s.Campaign.Runner.n_resumed > 0 then
       [ Printf.sprintf "%d resumed from checkpoint" s.Campaign.Runner.n_resumed ]
     else [])
    @
    if s.Campaign.Runner.n_cached > 0 then
      [ Printf.sprintf "%d served from cache" s.Campaign.Runner.n_cached ]
    else []
  in
  pf "\n%d completed, %d truncated, %d failed%s\n" s.Campaign.Runner.n_completed
    s.Campaign.Runner.n_truncated s.Campaign.Runner.n_errored
    (match notes with
    | [] -> ""
    | ns -> Printf.sprintf " (%s)" (String.concat "; " ns));
  if s.Campaign.Runner.failures <> [] then begin
    pf "failure breakdown:\n";
    List.iter (fun (cls, n) -> pf "  %-24s %d\n" cls n) s.Campaign.Runner.failures
  end;
  if s.Campaign.Runner.geomeans <> [] then begin
    let gt = Report.Table.create [ "configuration"; "geomean speedup" ] in
    List.iter
      (fun (c, g) ->
        Report.Table.add_row gt [ Loopa.Config.name c; Printf.sprintf "%.2f" g ])
      s.Campaign.Runner.geomeans;
    pf "\n%s\n" (Report.Table.render gt)
  end;
  Buffer.contents b
