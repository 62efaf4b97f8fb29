(* Command-line front door to the limit-study framework.

     loopapalooza list                      — benchmark registry
     loopapalooza run <file|bench>         — execute a Looplang program
     loopapalooza analyze <file|bench>     — limit study under one config
     loopapalooza sweep <file|bench>       — the full Figure-2/3 config ladder
     loopapalooza parrun <targets..>       — guarded parallel DOALL execution
     loopapalooza campaign <targets..>     — fault-tolerant whole-suite runs
     loopapalooza chaos [targets..]        — seeded fault-injection soak
     loopapalooza repro show|replay|shrink — crash-repro bundles
     loopapalooza census <file|bench>      — Table-I census of the program
     loopapalooza dump-ir <file|bench>     — canonicalized SSA dump
     loopapalooza lint <files|bench..>     — static diagnostics (text or JSON)

   Exit codes: 0 success; 1 compile/runtime error in the target program
   (for `lint`: any error-severity diagnostic);
   2 usage error (bad configuration, unknown target, bad flags);
   3 unexpected internal error (classified and printed, never a raw
   backtrace). `repro replay` adds 4 (failure vanished) and 5 (failure
   changed fingerprint). `campaign` adds 6 (interrupted by
   SIGINT/SIGTERM — checkpointed work is flushed and resumable). For
   `chaos`, 1 means a supervision invariant was violated. *)

open Cmdliner

let read_program target =
  match Suites.Suite.find target with
  | Some b -> b.Suites.Suite.source
  | None ->
      if Sys.file_exists target then In_channel.with_open_text target In_channel.input_all
      else
        let hint =
          match Suites.Suite.closest target with
          | Some name -> Printf.sprintf " (did you mean %S?)" name
          | None -> ""
        in
        raise
          (Invalid_argument
             (Printf.sprintf "%S is neither a benchmark name nor a file%s" target hint))

let target_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM" ~doc:"A registered benchmark name or a Looplang source file.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the constant-folding/DCE/CFG-cleanup pipeline before analysis.")

let fuel_arg =
  Arg.(
    value
    & opt int Loopa.Config.default_fuel
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Stop (gracefully truncating) after $(docv) interpreted instructions.")

(* Every subcommand body runs under this classifier: expected failures get
   a one-line message and a documented exit code; anything unexpected is
   still classified (exit 3) instead of escaping as a raw backtrace.
   [handle_errors_int] is the same classifier for bodies that pick their
   own success exit code (repro replay's reproduced/vanished/changed). *)
let handle_errors_int f =
  try f () with
  | Frontend.Compile_error e ->
      Printf.eprintf "compile error: %s\n" (Frontend.error_to_string e);
      1
  | Interp.Rvalue.Trap (kind, msg) ->
      Printf.eprintf "runtime trap (%s): %s\n"
        (Interp.Rvalue.trap_kind_to_string kind)
        msg;
      1
  | Interp.Rvalue.Runtime_error msg ->
      Printf.eprintf "runtime error: %s\n" msg;
      1
  | Invalid_argument msg | Loopa.Config.Bad_config msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Sys_error msg ->
      Printf.eprintf "system error: %s\n" msg;
      2
  | Unix.Unix_error (err, _, arg) ->
      Printf.eprintf "system error: %s: %s\n" arg (Unix.error_message err);
      2
  | Ir.Verifier.Invalid_ir msg ->
      Printf.eprintf "internal error: IR verifier rejected the module: %s\n" msg;
      3
  | Loopa.Crosscheck.Unsound msg ->
      Printf.eprintf "internal error: %s\n" msg;
      3
  | Campaign.Runner.Interrupted ->
      Printf.eprintf "interrupted — checkpointed results flushed; rerun with --resume\n";
      6
  | Stack_overflow ->
      Printf.eprintf "internal error: stack overflow\n";
      3
  | e ->
      Printf.eprintf "internal error: unexpected exception: %s\n" (Printexc.to_string e);
      3

let handle_errors f =
  handle_errors_int (fun () ->
      f ();
      0)

(* ---- telemetry flags (analyze / sweep / parrun / campaign) ---- *)

type telemetry = { trace : string option; metrics : bool; prom : string option }

let telemetry_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record pipeline telemetry and write a Chrome trace-event JSON of \
             every span to $(docv); load it in chrome://tracing or Perfetto.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record pipeline telemetry and print the metrics dump (span tree, \
             counters, histograms) after the run.")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Record pipeline telemetry and write a Prometheus-style text dump \
             of counters, histograms and span aggregates to $(docv).")
  in
  Term.(
    const (fun trace metrics prom -> { trace; metrics; prom })
    $ trace $ metrics $ prom)

(* ---- parallelism (campaign / chaos) ---- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run tasks across $(docv) forked worker processes, handing each \
           idle worker the next task; 0 means one per detected core. Results \
           (and the campaign checkpoint) are identical to a serial run.")

let resolve_jobs jobs =
  if jobs < 0 then
    raise (Invalid_argument (Printf.sprintf "--jobs %d: want 0 or a positive count" jobs))
  else if jobs = 0 then Exec.Pool.detect_jobs ()
  else jobs

(* ---- result cache (analyze / sweep / campaign) ---- *)

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Serve results from (and store fresh results into) the \
           content-addressed cache at $(docv). Keys cover the source bytes, \
           every result-shaping knob and the code revision \
           ($(b,LOOPA_GIT_REV)), so a warm hit replays byte-identical output \
           without compiling or classifying anything.")

(* Enable recording iff any exporter was requested, and export on the way
   out even when the body fails — the trace of a failed pipeline is exactly
   the thing worth looking at. *)
let with_telemetry { trace; metrics; prom } f =
  if trace = None && (not metrics) && prom = None then f ()
  else begin
    Obs.Telemetry.enable ();
    let export () =
      Option.iter Obs.Export.write_chrome_trace trace;
      Option.iter Obs.Export.write_prometheus prom;
      if metrics then print_string (Report.Metrics.render ())
    in
    Fun.protect ~finally:export f
  end

(* ---- live observability endpoint (sweep / parrun / campaign) ---- *)

let serve_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Serve live observability on 127.0.0.1:$(docv) while the run is in \
           flight: Prometheus text at /metrics and a JSON progress snapshot \
           at /status. Port 0 picks a free port (printed to stderr). \
           Implies telemetry recording.")

(* Start/stop the forked responder around [f]; recording is forced on so
   /metrics has content. Publishing is the command's job: each pushes a
   fresh snapshot at its natural progress points. *)
let with_serve serve f =
  match serve with
  | None -> f None
  | Some port ->
      Obs.Telemetry.enable ();
      let srv = Prof.Serve.start ~port () in
      Printf.eprintf "serving http://127.0.0.1:%d/metrics and /status\n%!"
        (Prof.Serve.port srv);
      Fun.protect ~finally:(fun () -> Prof.Serve.stop srv) (fun () -> f (Some srv))

let publish_status srv status =
  Option.iter
    (fun srv ->
      Prof.Serve.publish srv ~metrics:(Obs.Export.prometheus ()) ~status)
    srv

(* ---- list ---- *)

let list_cmd =
  let run () =
    let t = Report.Table.create [ "name"; "suite"; "description" ] in
    List.iter
      (fun (b : Suites.Suite.benchmark) ->
        Report.Table.add_row t
          [
            b.Suites.Suite.name;
            Suites.Suite.category_name b.Suites.Suite.category;
            b.Suites.Suite.descr;
          ])
      (Suites.Suite.all ());
    print_endline (Report.Table.render t);
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the registered benchmark suites.")
    Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let run target fuel =
    handle_errors (fun () ->
        let out = Loopa.Driver.run_source ~fuel (read_program target) in
        print_string out.Interp.Machine.output;
        (match out.Interp.Machine.stop with
        | Interp.Machine.Completed -> ()
        | stop ->
            Printf.printf "[%s — output above is the executed prefix]\n"
              (Interp.Machine.stop_reason_to_string stop));
        Printf.printf "[%d dynamic IR instructions, %d heap words]\n"
          out.Interp.Machine.clock out.Interp.Machine.mem_words)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a Looplang program on the reference interpreter.")
    Term.(const run $ target_arg $ fuel_arg)

(* ---- analyze ---- *)

let config_arg =
  Arg.(
    value
    & opt string "reduc1-dep1-fn2 HELIX"
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Configuration: $(b,reducR-depD-fnF) plus a model name (DOALL, PDOALL or \
           HELIX), e.g. \"reduc1-dep2-fn2 PDOALL\".")

let loops_arg =
  Arg.(
    value & opt int 8
    & info [ "loops" ] ~docv:"N" ~doc:"Show the $(docv) costliest loops (0 = none).")

let static_dep_arg =
  Arg.(
    value & flag
    & info [ "static-dep" ]
        ~doc:
          "Dump the static dependence tester's per-loop verdicts (proven-doall, \
           proven-lcd with witness, or unknown) before the report.")

let print_static_verdicts (ms : Loopa.Classify.module_static) =
  let t =
    Report.Table.create
      [ "loop"; "depth"; "trip"; "pairs"; "verdict"; "range-resolved"; "audit" ]
  in
  Hashtbl.fold (fun _ fs acc -> fs :: acc) ms.Loopa.Classify.funcs []
  |> List.sort (fun a b -> compare a.Loopa.Classify.fname b.Loopa.Classify.fname)
  |> List.iter (fun (fs : Loopa.Classify.func_static) ->
         Array.iter
           (fun (ls : Loopa.Classify.loop_static) ->
             let d = ls.Loopa.Classify.dep in
             Report.Table.add_row t
               [
                 Printf.sprintf "%s/bb%d" fs.Loopa.Classify.fname ls.Loopa.Classify.header;
                 string_of_int ls.Loopa.Classify.depth;
                 (match (ls.Loopa.Classify.trip, ls.Loopa.Classify.trip_bound) with
                 | Some n, _ -> Int64.to_string n
                 | None, Some b -> Printf.sprintf "<=%Ld" b
                 | None, None -> "?");
                 Printf.sprintf "%d/%d" d.Deptest.Analysis.n_refuted
                   d.Deptest.Analysis.n_pairs;
                 Deptest.Analysis.verdict_to_string d.Deptest.Analysis.verdict;
                 (if Loopa.Classify.range_resolved ls then "yes" else "");
                 (match ls.Loopa.Classify.audit with
                 | Some Dataflow.Audit.Certified -> "certified"
                 | Some (Dataflow.Audit.Refuted _) -> "downgraded"
                 | None -> "-");
               ])
           fs.Loopa.Classify.loops);
  print_endline (Report.Table.render t);
  print_newline ()

(* The headline before/after delta the dataflow layer buys: how many loops
   the range-strengthened tests resolved out of the baseline Unknowns, and
   how many Proven_doall verdicts the safety audit took back. *)
let dep_delta_line (ms : Loopa.Classify.module_static) =
  let loops, resolved, downgraded =
    Hashtbl.fold
      (fun _ fs (l, r, d) ->
        Array.fold_left
          (fun (l, r, d) ls ->
            ( l + 1,
              (if Loopa.Classify.range_resolved ls then r + 1 else r),
              match ls.Loopa.Classify.audit with
              | Some (Dataflow.Audit.Refuted _) -> d + 1
              | _ -> d ))
          (l, r, d) fs.Loopa.Classify.loops)
      ms.Loopa.Classify.funcs (0, 0, 0)
  in
  let before, after = Loopa.Classify.unknown_delta ms in
  Printf.sprintf
    "static dep   : %d loops, unknown %d -> %d (range-resolved %d, audit-downgraded %d)\n"
    loops before after resolved downgraded


(* The text summary behind `analyze --profile`: hottest frames by exact
   self-instruction attribution (the only place per-frame wall time is
   shown — the folded exports stay wall-free and byte-deterministic),
   the opcode mix, and the emitted file list. *)
let print_hotspot_profile ~base ~name h =
  let files = Prof.Hotspot.write_files h ~base ~name in
  print_newline ();
  Printf.printf "profile: %d instructions attributed, %d samples at period %d\n"
    (Prof.Hotspot.total_instrs h)
    (Prof.Hotspot.n_samples h)
    (Prof.Hotspot.sample_period h);
  let total = max 1 (Prof.Hotspot.total_instrs h) in
  let t = Report.Table.create [ "frame"; "self instrs"; "%"; "wall s" ] in
  List.iteri
    (fun i (frame, instrs, wall) ->
      if i < 12 then
        Report.Table.add_row t
          [
            frame;
            string_of_int instrs;
            Printf.sprintf "%.1f" (100.0 *. float_of_int instrs /. float_of_int total);
            Printf.sprintf "%.4f" wall;
          ])
    (Prof.Hotspot.flat h);
  print_endline (Report.Table.render t);
  (match Prof.Hotspot.opcode_counts h with
  | [] -> ()
  | ops ->
      print_newline ();
      print_endline "opcode mix (retired instructions):";
      List.iteri
        (fun i (op, n) -> if i < 8 then Printf.printf "  %-12s %d\n" op n)
        (List.sort (fun (_, a) (_, b) -> compare (b : int) a) ops));
  List.iter (fun p -> Printf.printf "wrote %s\n" p) files

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Self-profile the interpreted run and write folded-stack \
           flamegraphs: $(docv) (exact, instruction-weighted; per-frame \
           totals sum to instructions_retired), $(i,FILE).samples.folded \
           (sampled) and $(i,FILE).speedscope.json. Also prints the hottest \
           frames and the opcode mix.")

let sample_period_arg =
  Arg.(
    value & opt int Prof.Hotspot.default_period
    & info [ "sample-period" ] ~docv:"N"
        ~doc:
          "Take one guest-stack sample every $(docv) retired instructions \
           (deterministic: placement is a pure function of the clock).")

let analyze_cmd =
  let run target config fuel loops optimize static_dep profile sample_period
      cache telemetry =
    handle_errors (fun () ->
        with_telemetry telemetry (fun () ->
            let source = read_program target in
            (* --static-dep and --profile add output the cached entry does
               not cover; they bypass the cache rather than truncate it *)
            let cache =
              if static_dep || profile <> None then None
              else Option.map Service.Cache.open_dir cache
            in
            let key =
              Service.Cache.key ~source
                ~fingerprint:
                  (Service.Keys.analyze ~config ~fuel ~loops ~optimize)
            in
            let cached_text =
              Option.bind cache (fun c ->
                  Option.bind (Service.Cache.find c key) (fun v ->
                      Option.bind (Util.Json.member "text" v) Util.Json.to_str))
            in
            match cached_text with
            | Some text ->
                (* warm hit: no compile, no classify — just the bytes *)
                print_string text
            | None ->
                let cfg = Loopa.Config.of_string config in
                let hotspot =
                  Option.map
                    (fun _ ->
                      Prof.Hotspot.create ~sample_period:(max 1 sample_period) ())
                    profile
                in
                let a = Loopa.Driver.analyze_source ~fuel ~optimize ?hotspot source in
                if static_dep then print_static_verdicts a.Loopa.Driver.ms;
                let text =
                  Service.Render.report ~show_loops:loops
                    (Loopa.Driver.evaluate a cfg)
                in
                Option.iter
                  (fun c ->
                    Service.Cache.store c key
                      (Util.Json.Obj
                         [
                           ("kind", Util.Json.String "analyze");
                           ("text", Util.Json.String text);
                         ]))
                  cache;
                print_string text;
                (match (profile, hotspot) with
                | Some base, Some h -> print_hotspot_profile ~base ~name:target h
                | _ -> ())))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the limit study on a program under one configuration.")
    Term.(
      const run $ target_arg $ config_arg $ fuel_arg $ loops_arg $ optimize_arg
      $ static_dep_arg $ profile_arg $ sample_period_arg $ cache_arg
      $ telemetry_term)

(* ---- sweep ---- *)

let sweep_row (r : Loopa.Evaluate.report) =
  [
    Loopa.Config.name r.Loopa.Evaluate.config;
    Printf.sprintf "%.2f" r.Loopa.Evaluate.speedup;
    Printf.sprintf "%.1f" r.Loopa.Evaluate.coverage_pct;
    Printf.sprintf "%.1f" r.Loopa.Evaluate.static_coverage_pct;
  ]

let sweep_cmd =
  let run target fuel cache serve telemetry =
    handle_errors (fun () ->
        with_telemetry telemetry (fun () ->
        with_serve serve (fun srv ->
            let sweep_status state =
              Util.Json.Obj
                [
                  ("command", Util.Json.String "sweep");
                  ("target", Util.Json.String target);
                  ("state", Util.Json.String state);
                ]
            in
            publish_status srv (sweep_status "analyzing");
            let source = read_program target in
            let cache = Option.map Service.Cache.open_dir cache in
            let key =
              Service.Cache.key ~source
                ~fingerprint:(Service.Keys.sweep ~fuel)
            in
            let cached_text =
              Option.bind cache (fun c ->
                  Option.bind (Service.Cache.find c key) (fun v ->
                      Option.bind (Util.Json.member "text" v) Util.Json.to_str))
            in
            (match cached_text with
            | Some text -> print_string text
            | None ->
                let a = Loopa.Driver.analyze_source ~fuel source in
                let t =
                  Report.Table.create
                    [ "configuration"; "speedup"; "coverage %"; "static %" ]
                in
                List.iter
                  (fun cfg ->
                    Report.Table.add_row t
                      (sweep_row (Loopa.Driver.evaluate a cfg)))
                  Loopa.Config.figure_ladder;
                let text =
                  Printf.sprintf "%s\n%s\n"
                    (dep_delta_line a.Loopa.Driver.ms)
                    (Report.Table.render t)
                in
                Option.iter
                  (fun c ->
                    Service.Cache.store c key
                      (Util.Json.Obj
                         [
                           ("kind", Util.Json.String "sweep");
                           ("text", Util.Json.String text);
                         ]))
                  cache;
                print_string text);
            publish_status srv (sweep_status "done"))))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Evaluate the full Figure-2/3 configuration ladder.")
    Term.(
      const run $ target_arg $ fuel_arg $ cache_arg $ serve_arg
      $ telemetry_term)

(* ---- parrun ---- *)

let print_parrun_result target (r : Parrun.Guard.result) =
  Printf.printf "== %s ==\n" target;
  let rows = r.Parrun.Guard.rows in
  if rows = [] then print_endline "no Proven_doall loops"
  else begin
    print_endline (Report.Calibration.render rows);
    let chart = Report.Calibration.chart rows in
    if chart <> "" then begin
      print_newline ();
      print_endline chart
    end
  end;
  Printf.printf "serial %.4fs  parallel %.4fs  %s\n" r.Parrun.Guard.serial_wall
    r.Parrun.Guard.parallel_wall
    (if r.Parrun.Guard.identical then "byte-identical"
     else "DIVERGED (guarded execution is unsound — this is a bug)");
  if Exec.Pool.detect_jobs () < 2 then
    print_endline
      "note: 1 core online — shards timeshare the CPU, so measured speedup \
       is capped below 1x on this host";
  if not r.Parrun.Guard.identical then
    List.iter (fun d -> Printf.printf "  diff: %s\n" d) r.Parrun.Guard.diffs;
  List.iter
    (fun (c : Parrun.Runner.conflict_record) ->
      Printf.printf "conflict: %s — %s%s\n" c.Parrun.Runner.cf_fingerprint
        c.Parrun.Runner.cf_message
        (match c.Parrun.Runner.cf_bundle with
        | Some p -> Printf.sprintf " (bundle: %s)" p
        | None -> ""))
    (Parrun.Runner.conflicts r.Parrun.Guard.runner)

let parrun_result_json target (r : Parrun.Guard.result) : Util.Json.t =
  Util.Json.Obj
    [
      ("target", Util.Json.String target);
      ("identical", Util.Json.Bool r.Parrun.Guard.identical);
      ( "diffs",
        Util.Json.List
          (List.map (fun d -> Util.Json.String d) r.Parrun.Guard.diffs) );
      ("serial_wall_s", Util.Json.Float r.Parrun.Guard.serial_wall);
      ("parallel_wall_s", Util.Json.Float r.Parrun.Guard.parallel_wall);
      ( "loops",
        Util.Json.List
          (List.map Report.Calibration.row_to_json r.Parrun.Guard.rows) );
      ( "conflicts",
        Util.Json.List
          (List.map
             (fun (c : Parrun.Runner.conflict_record) ->
               Util.Json.Obj
                 [
                   ("fingerprint", Util.Json.String c.Parrun.Runner.cf_fingerprint);
                   ("message", Util.Json.String c.Parrun.Runner.cf_message);
                   ( "bundle",
                     match c.Parrun.Runner.cf_bundle with
                     | Some p -> Util.Json.String p
                     | None -> Util.Json.Null );
                 ])
             (Parrun.Runner.conflicts r.Parrun.Guard.runner)) );
    ]

let parrun_cmd =
  let run targets all fuel jobs min_trip quarantine_path repro_dir watchdog
      chaos_seed no_predict fail_on_quarantine json serve telemetry =
    handle_errors_int (fun () ->
        with_telemetry telemetry (fun () ->
        with_serve serve (fun srv ->
            let targets =
              if all then Suites.Suite.names ()
              else if targets = [] then
                raise (Invalid_argument "no targets (name some, or pass --all)")
              else targets
            in
            let jobs = resolve_jobs jobs in
            let knobs =
              {
                Parrun.Runner.default_knobs with
                Parrun.Runner.jobs;
                min_trip;
                watchdog_s = watchdog;
                chaos = Option.map Exec.Chaos.shard_seeded chaos_seed;
              }
            in
            let quarantine =
              match quarantine_path with
              | Some p -> Parrun.Quarantine.load p
              | None -> Parrun.Quarantine.create ()
            in
            let pre_quarantined = Parrun.Quarantine.size quarantine in
            let diverged = ref [] and failed = ref [] and docs = ref [] in
            let n_done = ref 0 in
            let total = List.length targets in
            let publish_progress () =
              publish_status srv
                (Util.Json.Obj
                   [
                     ("command", Util.Json.String "parrun");
                     ("done", Util.Json.Int !n_done);
                     ("total", Util.Json.Int total);
                     ("diverged", Util.Json.Int (List.length !diverged));
                     ("failed", Util.Json.Int (List.length !failed));
                     ( "quarantined",
                       Util.Json.Int (Parrun.Quarantine.size quarantine) );
                   ])
            in
            publish_progress ();
            List.iter
              (fun target ->
                (match
                   Parrun.Guard.run ~knobs ~quarantine ?repro_dir ~fuel
                     ~predict:(not no_predict) ~target (read_program target)
                 with
                | Error f ->
                    failed := target :: !failed;
                    Printf.eprintf "%s: %s\n" target
                      (Loopa.Driver.failure_to_string f)
                | Ok r ->
                    if json then docs := parrun_result_json target r :: !docs
                    else begin
                      print_parrun_result target r;
                      print_newline ()
                    end;
                    if not r.Parrun.Guard.identical then
                      diverged := target :: !diverged);
                incr n_done;
                publish_progress ())
              targets;
            Option.iter (Parrun.Quarantine.save quarantine) quarantine_path;
            if json then
              print_endline
                (Util.Json.to_string (Util.Json.List (List.rev !docs)));
            let newly = Parrun.Quarantine.size quarantine - pre_quarantined in
            if newly > 0 then
              Printf.eprintf "%d verdict(s) newly quarantined\n" newly;
            if !diverged <> [] then begin
              Printf.eprintf "DIVERGENCE on: %s\n"
                (String.concat ", " (List.rev !diverged));
              1
            end
            else if !failed <> [] then 1
            else if fail_on_quarantine && newly > 0 then 1
            else 0)))
  in
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PROGRAM"
          ~doc:"Registered benchmark names or Looplang source files.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Run every benchmark in the registry.")
  in
  let par_jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shards per eligible loop invocation; 0 means one per detected \
             core, 1 disables sharding (everything runs serially).")
  in
  let min_trip_arg =
    Arg.(
      value & opt int Parrun.Runner.default_knobs.Parrun.Runner.min_trip
      & info [ "min-trip" ] ~docv:"N"
          ~doc:"Smallest known iteration count worth forking a pool for.")
  in
  let quarantine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"FILE"
          ~doc:
            "Load previously quarantined verdicts from $(docv) before running \
             and save the (possibly grown) set back afterwards.")
  in
  let repro_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "Write a deterministic repro bundle into $(docv) for every \
             detected conflict; replay with $(b,repro replay).")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "Per-shard wall deadline: a stalled shard is reaped and the \
             invocation rolls back to serial execution.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Inject seeded shard faults (kill/stall/torn/corrupt) to soak the \
             rollback path; results must still be byte-identical.")
  in
  let no_predict_arg =
    Arg.(
      value & flag
      & info [ "no-predict" ]
          ~doc:
            "Skip the cost-model profiling pass (the predicted-speedup column \
             reads as '-').")
  in
  let fail_on_quarantine_arg =
    Arg.(
      value & flag
      & info [ "fail-on-quarantine" ]
          ~doc:
            "Exit non-zero when a run quarantines a verdict that was not \
             already quarantined (CI soak mode: every conflict is news).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON document per target instead of text.")
  in
  Cmd.v
    (Cmd.info "parrun"
       ~doc:
         "Guarded parallel DOALL execution: shard proven-parallel loops across \
          forked workers, detect cross-shard conflicts, roll back to serial on \
          any doubt, quarantine lying verdicts, and report measured vs \
          predicted speedup. Exit 1 on divergence (or, with \
          --fail-on-quarantine, on any new quarantine entry).")
    Term.(
      const run $ targets_arg $ all_arg $ fuel_arg $ par_jobs_arg $ min_trip_arg
      $ quarantine_arg $ repro_dir_arg $ watchdog_arg $ chaos_seed_arg
      $ no_predict_arg $ fail_on_quarantine_arg $ json_arg $ serve_arg
      $ telemetry_term)

(* ---- campaign ---- *)

(* `--inject NAME=KIND[@CLOCK]` — test-only fault injection used to prove
   the degradation paths end-to-end. KIND: compile (corrupt the source),
   div0, oob, fuel, depth (machine fault at the given clock, default 1000). *)
let parse_inject spec =
  let fail () =
    raise
      (Invalid_argument
         (Printf.sprintf
            "bad --inject %S (want NAME=KIND[@CLOCK] with KIND one of compile, div0, \
             oob, fuel, depth)"
            spec))
  in
  match String.index_opt spec '=' with
  | None -> fail ()
  | Some i ->
      let name = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let kind, clock =
        match String.index_opt rest '@' with
        | None -> (rest, 1_000)
        | Some j -> (
            let at = String.sub rest (j + 1) (String.length rest - j - 1) in
            match int_of_string_opt at with
            | Some n when n >= 0 -> (String.sub rest 0 j, n)
            | _ -> fail ())
      in
      let fault =
        match kind with
        | "compile" -> `Corrupt_source
        | "div0" -> `Fault Interp.Machine.Inject_div_by_zero
        | "oob" -> `Fault Interp.Machine.Inject_oob
        | "fuel" -> `Fault Interp.Machine.Inject_fuel_out
        | "depth" -> `Fault Interp.Machine.Inject_depth_out
        | _ -> fail ()
      in
      (name, fault, clock)

let print_campaign_summary (s : Campaign.Runner.summary) =
  print_string (Service.Render.campaign_summary s)

let campaign_cmd =
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGETS"
          ~doc:"Registered benchmark names or Looplang source files.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Run over the whole benchmark registry.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as JSON on stdout.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Append one JSONL line per finished task to $(docv).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Reload $(b,--checkpoint) first and skip targets already recorded.")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries at reduced fuel for budget-exhausted tasks.")
  in
  let wall_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "wall" ] ~docv:"SECONDS"
          ~doc:
            "Per-attempt wall-clock budget, polled cooperatively by the \
             interpreter; exceeding it truncates the task.")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "Per-task wall deadline enforced from the parent under $(b,--jobs): \
             a worker still on the same task past the deadline is SIGKILLed and \
             the task recorded as task-timeout (catches hangs the cooperative \
             $(b,--wall) budget cannot).")
  in
  let inject_arg =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"NAME=KIND[@CLOCK]"
          ~doc:
            "Test-only fault injection for target $(i,NAME): $(b,compile) corrupts \
             the source, $(b,div0)/$(b,oob)/$(b,fuel)/$(b,depth) fire the fault at \
             the given clock (default 1000). Repeatable.")
  in
  let repro_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "Drop a self-contained repro bundle ($(i,target).repro.json) in \
             $(docv) for every errored task; replay or shrink them with the \
             $(b,repro) subcommands.")
  in
  let profile_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-dir" ] ~docv:"DIR"
          ~doc:
            "Self-profile every task's full-fuel attempt and drop \
             $(i,target).folded, $(i,target).samples.folded and \
             $(i,target).speedscope.json flamegraph files in $(docv).")
  in
  let run targets all json checkpoint resume retries fuel wall watchdog injects
      repro_dir profile_dir jobs cache serve telemetry =
    handle_errors (fun () ->
        if (not all) && targets = [] then
          raise (Invalid_argument "campaign needs TARGETS or --all");
        if resume && checkpoint = None then
          raise (Invalid_argument "--resume needs --checkpoint");
        let injects = List.map parse_inject injects in
        let named =
          if all then
            List.map
              (fun (b : Suites.Suite.benchmark) -> (b.Suites.Suite.name, b.Suites.Suite.source))
              (Suites.Suite.all ())
          else List.map (fun t -> (t, read_program t)) targets
        in
        let named =
          List.map
            (fun (name, src) ->
              let corrupted =
                List.exists (fun (n, f, _) -> n = name && f = `Corrupt_source) injects
              in
              (* an unbalanced brace is a guaranteed front-end error *)
              (name, if corrupted then "} // injected compile fault\n" ^ src else src))
            named
        in
        let faults_of name =
          List.filter_map
            (function
              | n, `Fault f, clock when n = name -> Some (clock, f)
              | _ -> None)
            injects
        in
        let budgets =
          {
            Campaign.Runner.default_budgets with
            Campaign.Runner.fuel;
            retries;
            wall_s = wall;
            watchdog_s = watchdog;
          }
        in
        let log = if json then fun _ -> () else prerr_endline in
        with_telemetry telemetry (fun () ->
        with_serve serve (fun srv ->
            (* a live progress line rides along whenever telemetry is on
               (and the summary is not being parsed off stdout as JSON);
               with --serve, every beat is also published as /status *)
            let log_beat =
              if (not json) && Obs.Telemetry.enabled () then
                Some
                  (fun hb -> prerr_endline (Campaign.Runner.heartbeat_line hb))
              else None
            in
            let publish_beat hb =
              publish_status srv
                (Util.Json.Obj
                   [
                     ("command", Util.Json.String "campaign");
                     ("heartbeat", Campaign.Runner.heartbeat_json hb);
                   ])
            in
            let heartbeat =
              match (log_beat, srv) with
              | None, None -> None
              | _ ->
                  Some
                    (fun hb ->
                      Option.iter (fun f -> f hb) log_beat;
                      if srv <> None then publish_beat hb)
            in
            let jobs = resolve_jobs jobs in
            let executor =
              if jobs > 1 then Campaign.Runner.Forked jobs
              else Campaign.Runner.Serial
            in
            (* fault injection and per-task profiling must not consume or
               poison cached results; both disable the cache outright *)
            let cache =
              if injects <> [] || profile_dir <> None then None
              else Option.map Service.Cache.open_dir cache
            in
            let fingerprint =
              Service.Keys.campaign ~budgets ~configs:Loopa.Config.figure_ladder
            in
            let key_of t =
              Service.Cache.key ~source:(List.assoc t named) ~fingerprint
            in
            let cache_find =
              Option.map
                (fun c t ->
                  Option.bind (Service.Cache.find c (key_of t)) (fun v ->
                      match Campaign.Runner.result_of_json v with
                      | Ok r -> Some { r with Campaign.Runner.target = t }
                      | Error _ -> None))
                cache
            in
            let cache_store =
              Option.map
                (fun c t r ->
                  Service.Cache.store c (key_of t)
                    (Campaign.Runner.result_to_json r))
                cache
            in
            let summary =
              Campaign.Runner.run ~budgets ?checkpoint ~resume ~faults_of
                ?repro_dir ?prof_dir:profile_dir ~log ?heartbeat ~executor
                ?cache_find ?cache_store named
            in
            if json then
              print_endline
                (Util.Json.to_string (Campaign.Runner.summary_to_json summary))
            else print_campaign_summary summary)))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fault-tolerant limit-study runs over many targets: per-task isolation and \
          budgets, graceful truncation, JSONL checkpointing and resumption.")
    Term.(
      const run $ targets_arg $ all_arg $ json_arg $ checkpoint_arg $ resume_arg
      $ retries_arg $ fuel_arg $ wall_arg $ watchdog_arg $ inject_arg
      $ repro_dir_arg $ profile_dir_arg $ jobs_arg $ cache_arg $ serve_arg
      $ telemetry_term)

(* ---- chaos ---- *)

(* Checkpoint lines with the nondeterministic fields (wall-clock durations,
   telemetry snapshots) stripped, for byte comparison across same-seed
   runs. Non-object or unparseable lines pass through untouched so a codec
   regression shows up as a diff instead of being normalized away. *)
let normalized_checkpoint path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match Util.Json.of_string line with
         | Ok (Util.Json.Obj fields) ->
             Util.Json.to_string
               (Util.Json.Obj
                  (List.filter
                     (fun (k, _) -> k <> "wall_s" && k <> "telemetry")
                     fields))
         | _ -> line)

(* The self-checking soak harness behind `loopapalooza chaos`: two
   campaigns under the same seeded fault schedule, then a chaos-free
   resume of the first checkpoint. Asserts the supervision invariants —
   every task classified, losses exactly the planned lethal faults,
   byte-identical normalized checkpoints, resume runs the file to
   completion — and exits 1 when any is violated. *)
let chaos_cmd =
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGETS"
          ~doc:
            "Registered benchmark names or Looplang source files (default: the \
             fp2000 suite).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Fault-schedule seed. Placement is a pure function of the seed and \
             the task index, so a failing run is replayable from this one \
             integer.")
  in
  let watchdog_arg =
    Arg.(
      value & opt float 5.0
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "Per-task wall deadline; injected SIGSTOP stalls are reaped as \
             task-timeouts after $(docv).")
  in
  let keep_checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write the harness checkpoints to $(docv) (second pass adds .2) and \
             keep them; default temp files, removed when the invariants hold.")
  in
  let run targets seed jobs watchdog checkpoint =
    handle_errors_int (fun () ->
        let named =
          if targets = [] then
            List.map
              (fun (b : Suites.Suite.benchmark) ->
                (b.Suites.Suite.name, b.Suites.Suite.source))
              (Suites.Suite.by_category Suites.Suite.Fp2000)
          else List.map (fun t -> (t, read_program t)) targets
        in
        let n = List.length named in
        if n = 0 then raise (Invalid_argument "chaos needs at least one target");
        let jobs = resolve_jobs jobs in
        let executor =
          if jobs > 1 then Campaign.Runner.Forked jobs else Campaign.Runner.Serial
        in
        let plan = Exec.Chaos.seeded seed in
        let budgets =
          {
            Campaign.Runner.default_budgets with
            Campaign.Runner.watchdog_s = Some watchdog;
          }
        in
        let base =
          match checkpoint with
          | Some p -> p
          | None -> Filename.temp_file "loopa-chaos-" ".jsonl"
        in
        let second = base ^ ".2" in
        let log = prerr_endline in
        Printf.printf "chaos: seed %d over %d task(s), jobs %d, watchdog %gs\n"
          seed n jobs watchdog;
        Printf.printf "planned: %s\n%!" (Exec.Chaos.summary plan ~n);
        let pass ckpt =
          Campaign.Runner.run ~budgets ~checkpoint:ckpt ~log ~executor
            ~chaos:plan named
        in
        let s1 = pass base in
        let s2 = pass second in
        let violations = ref [] in
        let fail fmt =
          Printf.ksprintf (fun m -> violations := m :: !violations) fmt
        in
        (* 1. every task classified, both passes *)
        List.iteri
          (fun pi (s : Campaign.Runner.summary) ->
            let got = List.length s.Campaign.Runner.results in
            if got <> n then
              fail "pass %d classified %d of %d tasks" (pi + 1) got n)
          [ s1; s2 ];
        (* 2. losses are exactly the planned lethal faults: nothing is lost
           beyond what chaos injected, and every injected loss surfaces *)
        let lost = ref 0 and timed_out = ref 0 in
        List.iteri
          (fun i (r : Campaign.Runner.result) ->
            let planned = Exec.Chaos.task_fault plan i in
            let planned_lethal =
              match planned with Some f -> Exec.Chaos.lethal f | None -> false
            in
            let observed_loss =
              match r.Campaign.Runner.status with
              | Campaign.Runner.Errored (Campaign.Runner.Worker_lost _) ->
                  incr lost;
                  true
              | Campaign.Runner.Errored (Campaign.Runner.Task_timeout _) ->
                  incr timed_out;
                  true
              | _ -> false
            in
            if planned_lethal && not observed_loss then
              fail "task %d (%s): planned %s but the task survived as %s" i
                r.Campaign.Runner.target
                (match planned with
                | Some f -> Exec.Chaos.fault_name f
                | None -> "?")
                (Campaign.Runner.status_class r.Campaign.Runner.status);
            if observed_loss && not planned_lethal then
              fail "task %d (%s): lost with no planned fault (%s)" i
                r.Campaign.Runner.target
                (Campaign.Runner.status_to_string r.Campaign.Runner.status))
          s1.Campaign.Runner.results;
        (* 3. same seed, same bytes (modulo wall-clock/telemetry fields) *)
        let n1 = normalized_checkpoint base and n2 = normalized_checkpoint second in
        if n1 <> n2 then begin
          fail "same-seed runs diverged: %d vs %d normalized checkpoint lines"
            (List.length n1) (List.length n2);
          List.iteri
            (fun i l1 ->
              match List.nth_opt n2 i with
              | Some l2 when l1 <> l2 ->
                  fail "  first divergence, line %d:\n    pass 1: %s\n    pass 2: %s"
                    (i + 1) l1 l2
              | _ -> ())
            n1
        end;
        let kept = List.length n1 in
        Printf.printf
          "pass 1: %d completed, %d truncated, %d lost, %d timed out; \
           checkpoint kept %d of %d line(s)\n"
          s1.Campaign.Runner.n_completed s1.Campaign.Runner.n_truncated !lost
          !timed_out kept n;
        Printf.printf "determinism: %s\n%!"
          (if n1 = n2 then "normalized checkpoints byte-identical" else "DIVERGED");
        (* 4. the survivor checkpoint resumes to completion with chaos off:
           only ckpt-fault-dropped lines are re-run, and they now succeed *)
        let s3 =
          Campaign.Runner.run ~budgets ~checkpoint:base ~resume:true ~log
            ~executor:Campaign.Runner.Serial named
        in
        if List.length s3.Campaign.Runner.results <> n then
          fail "resume classified %d of %d tasks"
            (List.length s3.Campaign.Runner.results)
            n;
        if s3.Campaign.Runner.n_resumed <> kept then
          fail "resume restored %d of %d checkpointed line(s)"
            s3.Campaign.Runner.n_resumed kept;
        Printf.printf "resume: re-ran %d dropped task(s), %d restored\n" (n - kept)
          s3.Campaign.Runner.n_resumed;
        match List.rev !violations with
        | [] ->
            if checkpoint = None then begin
              (try Sys.remove base with Sys_error _ -> ());
              try Sys.remove second with Sys_error _ -> ()
            end;
            Printf.printf "chaos invariants hold (seed %d)\n" seed;
            0
        | vs ->
            List.iter (Printf.eprintf "violation: %s\n") vs;
            Printf.eprintf "chaos invariants VIOLATED (seed %d) — checkpoints kept at %s\n"
              seed base;
            1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak the executor under a seeded deterministic fault schedule — worker \
          kills, SIGSTOP stalls, torn/corrupt/delayed result frames, checkpoint \
          write failures — and assert the supervision invariants (exit 1 on \
          violation).")
    Term.(const run $ targets_arg $ seed_arg $ jobs_arg $ watchdog_arg
          $ keep_checkpoint_arg)

(* ---- repro ---- *)

let bundle_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BUNDLE" ~doc:"A repro bundle file (*.repro.json).")

let load_bundle path =
  if not (Sys.file_exists path) then
    raise (Invalid_argument (Printf.sprintf "no such bundle: %s" path));
  match Repro.Bundle.load path with
  | Ok b -> b
  | Error m ->
      raise (Invalid_argument (Printf.sprintf "cannot load bundle %s: %s" path m))

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

let print_bundle (b : Repro.Bundle.t) =
  Printf.printf "target      : %s\n" b.Repro.Bundle.target;
  Printf.printf "stage       : %s\n" (Loopa.Driver.stage_name b.Repro.Bundle.stage);
  Printf.printf "fingerprint : %s\n" b.Repro.Bundle.fingerprint;
  Printf.printf "message     : %s\n" b.Repro.Bundle.message;
  Printf.printf "source      : %d lines\n" (count_lines b.Repro.Bundle.source);
  Printf.printf "fuel        : %d\n" b.Repro.Bundle.fuel;
  Option.iter (Printf.printf "mem limit   : %d words\n") b.Repro.Bundle.mem_limit;
  Option.iter (Printf.printf "max depth   : %d\n") b.Repro.Bundle.max_depth;
  if b.Repro.Bundle.configs <> [] then
    Printf.printf "configs     : %s\n"
      (String.concat ", " (List.map Loopa.Config.name b.Repro.Bundle.configs));
  if b.Repro.Bundle.faults <> [] then
    Printf.printf "faults      : %s\n"
      (String.concat ", "
         (List.map
            (fun (clock, f) ->
              Printf.sprintf "%s@%d" (Repro.Bundle.fault_key f) clock)
            b.Repro.Bundle.faults));
  if b.Repro.Bundle.crosscheck then Printf.printf "crosscheck  : yes\n";
  if b.Repro.Bundle.check_invariants then Printf.printf "invariants  : yes\n"

let repro_show_cmd =
  let run path source =
    handle_errors (fun () ->
        let b = load_bundle path in
        if source then print_string b.Repro.Bundle.source else print_bundle b)
  in
  let source_arg =
    Arg.(
      value & flag
      & info [ "source" ] ~doc:"Print the embedded Looplang program instead.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a repro bundle's metadata (or its program).")
    Term.(const run $ bundle_arg $ source_arg)

let repro_replay_cmd =
  let run path =
    handle_errors_int (fun () ->
        let b = load_bundle path in
        Printf.printf "expected: [%s] %s\n"
          (Loopa.Driver.stage_name b.Repro.Bundle.stage)
          b.Repro.Bundle.fingerprint;
        (* Parrun bundles replay through the guarded runtime (repro can't
           depend on parrun — the dependency points the other way) *)
        let verdict =
          match b.Repro.Bundle.stage with
          | Loopa.Driver.Parrun -> Parrun.Guard.replay b
          | _ -> Repro.Pipeline.replay b
        in
        match verdict with
        | Repro.Pipeline.Reproduced ->
            print_endline "reproduced";
            0
        | Repro.Pipeline.Vanished as v ->
            print_endline (Repro.Pipeline.verdict_to_string v);
            4
        | Repro.Pipeline.Changed _ as v ->
            print_endline (Repro.Pipeline.verdict_to_string v);
            5)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a bundle's pipeline deterministically and compare fingerprints. \
          Exit 0 when the failure reproduces identically, 4 when it vanished, 5 \
          when it changed.")
    Term.(const run $ bundle_arg)

let repro_shrink_cmd =
  let run path out max_candidates =
    handle_errors_int (fun () ->
        let b = load_bundle path in
        match Repro.Shrink.shrink ~max_candidates b with
        | Error m ->
            Printf.eprintf "shrink failed: %s\n" m;
            1
        | Ok (sb, stats) ->
            let strip s suffix =
              if Filename.check_suffix s suffix then Filename.chop_suffix s suffix
              else s
            in
            let base =
              match out with
              | Some o -> strip (strip o ".repro.json") ".loop"
              | None -> strip path ".repro.json" ^ ".min"
            in
            let bundle_path = base ^ ".repro.json" in
            let loop_path = base ^ ".loop" in
            Repro.Bundle.save bundle_path sb;
            Out_channel.with_open_text loop_path (fun oc ->
                output_string oc sb.Repro.Bundle.source);
            Printf.printf "%d -> %d lines (%d candidates tried, %d kept)\n"
              (count_lines b.Repro.Bundle.source)
              (count_lines sb.Repro.Bundle.source)
              stats.Repro.Shrink.tried stats.Repro.Shrink.accepted;
            Printf.printf "fingerprint : %s\n" sb.Repro.Bundle.fingerprint;
            Printf.printf "bundle      : %s\n" bundle_path;
            Printf.printf "program     : %s\n" loop_path;
            0)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"BASE"
          ~doc:
            "Basename for the minimized artifacts ($(docv).repro.json and \
             $(docv).loop). Default: the input path with a .min infix.")
  in
  let max_candidates_arg =
    Arg.(
      value & opt int 5000
      & info [ "max-candidates" ] ~docv:"N"
          ~doc:"Give up after re-running the pipeline on $(docv) candidates.")
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Delta-debug a bundle's program to a minimal one that still fails with \
          the same fingerprint class; writes the minimized bundle and a \
          standalone .loop file.")
    Term.(const run $ bundle_arg $ out_arg $ max_candidates_arg)

let repro_cmd =
  Cmd.group
    (Cmd.info "repro"
       ~doc:
         "Deterministic crash-repro bundles: show, replay and shrink failures \
          captured by campaign --repro-dir or the fuzz suite.")
    [ repro_show_cmd; repro_replay_cmd; repro_shrink_cmd ]

(* ---- census ---- *)

let census_cmd =
  let run target fuel =
    handle_errors (fun () ->
        let a = Loopa.Driver.analyze_source ~fuel (read_program target) in
        Format.printf "%a@." Loopa.Taxonomy.pp
          (Loopa.Taxonomy.of_profile a.Loopa.Driver.profile))
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:"Print the Table-I census of ordering constraints for a program.")
    Term.(const run $ target_arg $ fuel_arg)

(* ---- lint ---- *)

let lint_cmd =
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGETS"
          ~doc:"Registered benchmark names or Looplang source files.")
  in
  let all_arg =
    Arg.(
      value & flag & info [ "all" ] ~doc:"Lint the whole benchmark registry.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print one machine-readable report object (version, per-file \
             diagnostics with stable fingerprints) instead of text.")
  in
  let run targets all json optimize =
    handle_errors_int (fun () ->
        if (not all) && targets = [] then
          raise (Invalid_argument "lint needs TARGETS or --all");
        let named =
          if all then
            List.map
              (fun (b : Suites.Suite.benchmark) ->
                (b.Suites.Suite.name, b.Suites.Suite.source))
              (Suites.Suite.all ())
          else List.map (fun t -> (t, read_program t)) targets
        in
        let reports =
          named
          |> List.map (fun (name, src) ->
                 let m = Frontend.compile_exn src in
                 if optimize then Opt.Pipeline.run_module m;
                 (name, Loopa.Lint.run m))
          |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
        in
        if json then
          print_endline
            (Util.Json.to_string
               (Util.Json.Obj
                  [
                    ("version", Util.Json.Int 1);
                    ( "reports",
                      Util.Json.List
                        (List.map
                           (fun (file, ds) -> Loopa.Lint.report_to_json ~file ds)
                           reports) );
                  ]))
        else
          List.iter
            (fun (file, ds) ->
              Printf.printf "%s: %d error(s), %d warning(s), %d info(s)\n" file
                (Loopa.Lint.count Loopa.Lint.Error ds)
                (Loopa.Lint.count Loopa.Lint.Warning ds)
                (Loopa.Lint.count Loopa.Lint.Info ds);
              List.iter
                (fun d -> print_endline ("  " ^ Loopa.Lint.diag_to_string d))
                ds)
            reports;
        if List.exists (fun (_, ds) -> Loopa.Lint.has_errors ds) reports then 1
        else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run every static analysis as a lint rule (IR verifier, SSA \
          dominance, value-range hazards, dead code, parallel-safety audit \
          downgrades) and report diagnostics with stable fingerprints. Exit \
          1 when any error-severity diagnostic fires.")
    Term.(const run $ targets_arg $ all_arg $ json_arg $ optimize_arg)

(* ---- dump-ir ---- *)

let dump_ir_cmd =
  let run target optimize =
    handle_errors (fun () ->
        let m = Frontend.compile_exn (read_program target) in
        if optimize then Opt.Pipeline.run_module m;
        Cfg.Loop_simplify.run_module m;
        Ir.Verifier.check_module_exn m;
        print_string (Ir.Pp.module_to_string m))
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Print the canonicalized SSA IR of a program.")
    Term.(const run $ target_arg $ optimize_arg)

(* ---- perfdiff ---- *)

let perfdiff_cmd =
  let read_json path =
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)
    in
    match Util.Json.of_string contents with
    | Ok j -> j
    | Error e -> raise (Invalid_argument (Printf.sprintf "%s: %s" path e))
  in
  let read_jsonl path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> loop acc
          | line -> (
              match Util.Json.of_string line with
              | Ok j -> loop (j :: acc)
              | Error _ -> loop acc (* tolerate torn/malformed lines *))
        in
        loop [])
  in
  let snapshots_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SNAPSHOTS"
          ~doc:
            "Bench snapshot files: OLD NEW to compare two snapshots, or a \
             single NEW when --history is given.")
  in
  let history_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:
            "JSONL history file (one snapshot per line, e.g. \
             BENCH_history.jsonl): compare NEW against the per-series median, \
             with the slack widened by the series' own historical noise.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 1.0
      & info [ "tolerance" ] ~docv:"X"
          ~doc:
            "Scale every per-class slack by $(docv) (2.0 doubles the allowed \
             worsening; 0.5 halves it).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Print every compared series, not only the regressions.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the verdicts as one JSON object.")
  in
  let run snapshots history tolerance all json =
    handle_errors_int (fun () ->
        let verdicts =
          match (history, snapshots) with
          | None, [ old_path; new_path ] ->
              Report.Perfdiff.compare_snapshots ~tolerance
                ~old_:(read_json old_path) ~new_:(read_json new_path) ()
          | Some hist_path, [ new_path ] ->
              let new_ = read_json new_path in
              let history = read_jsonl hist_path in
              (* only compare against history rows of the same bench mode:
                 quick snapshots drift far from full ones *)
              let mode j =
                Option.bind (Util.Json.member "harness" j)
                  (Util.Json.member "quick")
              in
              let history =
                match mode new_ with
                | None -> history
                | Some _ as m -> List.filter (fun j -> mode j = m) history
              in
              if history = [] then
                raise
                  (Invalid_argument
                     (Printf.sprintf "%s: no comparable snapshots in history"
                        hist_path));
              Report.Perfdiff.compare_history ~tolerance ~history ~new_ ()
          | None, _ ->
              raise
                (Invalid_argument
                   "perfdiff needs OLD NEW (or NEW with --history FILE)")
          | Some _, _ ->
              raise
                (Invalid_argument "perfdiff --history takes exactly one NEW")
        in
        let regs = Report.Perfdiff.regressions verdicts in
        if json then
          print_endline (Util.Json.to_string (Report.Perfdiff.to_json verdicts))
        else if all || regs <> [] then
          print_endline
            (Report.Perfdiff.render ~only_regressions:(not all) verdicts);
        if regs <> [] then (
          Printf.eprintf "perfdiff: %d regression(s) in %d compared series\n%!"
            (List.length regs) (List.length verdicts);
          1)
        else (
          if not json then
            Printf.printf "no regressions (%d series compared)\n"
              (List.length verdicts);
          0))
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Perf-trajectory regression gate: compare two bench snapshots (or a \
          new snapshot against the JSONL history median) with noise-aware \
          per-class slack; exit 1 on regression.")
    Term.(
      const run $ snapshots_arg $ history_arg $ tolerance_arg $ all_arg
      $ json_arg)

let () =
  let doc = "Loopapalooza: a compiler-driven limit study of loop-level parallelism" in
  let info = Cmd.info "loopapalooza" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            analyze_cmd;
            sweep_cmd;
            parrun_cmd;
            campaign_cmd;
            chaos_cmd;
            repro_cmd;
            census_cmd;
            dump_ir_cmd;
            lint_cmd;
            perfdiff_cmd;
          ]))
