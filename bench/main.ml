(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (Table I, Table II, Figures 1-5) from the benchmark suites and
   writes the telemetry snapshot of the run. See DESIGN.md §5 for the
   experiment index and EXPERIMENTS.md for paper-vs-measured commentary.

   Usage: dune exec bench/main.exe [--quick] [--ablation] *)

let quick = Array.exists (( = ) "--quick") Sys.argv

(* Record pipeline telemetry for the whole harness run (must happen before
   [analyses] below profiles everything): the BENCH snapshot written at exit
   carries the aggregated per-stage span timings and counters. *)
let () = Obs.Telemetry.enable ()

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Sections run guarded: a failure mid-harness still produces the
   remaining sections and the BENCH snapshot, but the perf-trajectory
   append is withheld (see [write_bench_snapshot]) — a partial run's
   numbers must not enter BENCH_history.jsonl as if they were a full
   one. *)
let section_failures : string list ref = ref []

let guarded name f =
  try f ()
  with e ->
    section_failures := name :: !section_failures;
    Printf.printf "section %S failed partway: %s\n%!" name (Printexc.to_string e)

(* ---- parallel scaling: campaign wall time vs --jobs ----

   Measured FIRST, before [analyses] below fills the heap with every
   benchmark's profile: forked campaign workers inherit the parent image,
   and a child GC against a multi-hundred-MB copy-on-write heap would
   charge the pool for page copying that has nothing to do with it. *)

(* (jobs, wall seconds, speedup vs serial); recorded in the BENCH
   snapshot at exit *)
let scaling_results : (int * float * float) list ref = ref []

let () =
  guarded "parallel scaling" @@ fun () ->
  section "Parallel scaling — cfp2000 campaign under the fork pool";
  let targets =
    List.filter
      (fun (b : Suites.Suite.benchmark) -> b.Suites.Suite.category = Suites.Suite.Fp2000)
      (Suites.Suite.all ())
    |> List.map (fun (b : Suites.Suite.benchmark) -> (b.Suites.Suite.name, b.Suites.Suite.source))
  in
  let budgets =
    { Campaign.Runner.default_budgets with Campaign.Runner.fuel = 2_000_000 }
  in
  let time jobs =
    let executor =
      if jobs > 1 then Campaign.Runner.Forked jobs else Campaign.Runner.Serial
    in
    let t0 = Unix.gettimeofday () in
    let s = Campaign.Runner.run ~budgets ~executor ~log:(fun _ -> ()) targets in
    assert (s.Campaign.Runner.n_errored = 0);
    Unix.gettimeofday () -. t0
  in
  let serial = time 1 in
  scaling_results := [ (1, serial, 1.0) ];
  List.iter
    (fun jobs ->
      let w = time jobs in
      scaling_results := (jobs, w, serial /. w) :: !scaling_results)
    [ 2; 4 ];
  let t = Report.Table.create [ "jobs"; "wall s"; "speedup" ] in
  List.iter
    (fun (jobs, w, sp) ->
      Report.Table.add_row t
        [ string_of_int jobs; Printf.sprintf "%.2f" w; Printf.sprintf "%.2fx" sp ])
    (List.rev !scaling_results);
  print_endline (Report.Table.render t);
  let cores = Exec.Pool.detect_jobs () in
  Printf.printf
    "(%d detected cores on this machine — speedups flatten once jobs exceed them)\n%!"
    cores;
  if cores < 2 then
    Printf.printf
      "(single-core host: every forked job shares one core, so speedups are \
       capped below 1x by fork overhead)\n%!"

(* ---- chaos supervision: seeded fault injection under the fork pool ----

   Also before [analyses], for the same copy-on-write reason. Runs the
   cfp2000 campaign under a fixed fault seed and records planned-vs-
   observed fault counts plus the pool's counters (respawns, watchdog
   timeouts) in the BENCH snapshot. *)

let chaos_results : Util.Json.t ref = ref Util.Json.Null

let () =
  guarded "chaos" @@ fun () ->
  let seed = 29 and watchdog = 3.0 in
  section
    (Printf.sprintf "Chaos — cfp2000 campaign under seeded fault injection (seed %d)"
       seed);
  let targets =
    List.filter
      (fun (b : Suites.Suite.benchmark) -> b.Suites.Suite.category = Suites.Suite.Fp2000)
      (Suites.Suite.all ())
    |> List.map (fun (b : Suites.Suite.benchmark) -> (b.Suites.Suite.name, b.Suites.Suite.source))
  in
  let n = List.length targets in
  let plan = Exec.Chaos.seeded seed in
  let counters =
    List.map
      (fun name -> (name, Obs.Telemetry.counter ("pool." ^ name)))
      [ "respawns"; "timeouts" ]
  in
  let baseline = List.map (fun (k, c) -> (k, Obs.Telemetry.value c)) counters in
  let budgets =
    {
      Campaign.Runner.default_budgets with
      Campaign.Runner.fuel = 2_000_000;
      watchdog_s = Some watchdog;
    }
  in
  let t0 = Unix.gettimeofday () in
  let s =
    Campaign.Runner.run ~budgets ~executor:(Campaign.Runner.Forked 2) ~chaos:plan
      ~log:(fun _ -> ()) targets
  in
  let wall = Unix.gettimeofday () -. t0 in
  assert (List.length s.Campaign.Runner.results = n);
  let lost, timed_out =
    List.fold_left
      (fun (l, t) (r : Campaign.Runner.result) ->
        match r.Campaign.Runner.status with
        | Campaign.Runner.Errored (Campaign.Runner.Worker_lost _) -> (l + 1, t)
        | Campaign.Runner.Errored (Campaign.Runner.Task_timeout _) -> (l, t + 1)
        | _ -> (l, t))
      (0, 0) s.Campaign.Runner.results
  in
  let deltas =
    List.map
      (fun (k, c) -> (k, Obs.Telemetry.value c - List.assoc k baseline))
      counters
  in
  Printf.printf "planned: %s\n" (Exec.Chaos.summary plan ~n);
  Printf.printf
    "observed: %d completed, %d lost, %d timed out in %.2fs\n"
    s.Campaign.Runner.n_completed lost timed_out wall;
  Printf.printf "supervision: %s\n%!"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) deltas));
  chaos_results :=
    Util.Json.Obj
      ([
         ("seed", Util.Json.Int seed);
         ("targets", Util.Json.Int n);
         ("watchdog_s", Util.Json.Float watchdog);
         ("wall_s", Util.Json.Float wall);
         ( "planned",
           Util.Json.Obj
             (List.map
                (fun (k, v) -> (k, Util.Json.Int v))
                (Exec.Chaos.planned_counts plan ~n)) );
         ("lost", Util.Json.Int lost);
         ("timed_out", Util.Json.Int timed_out);
       ]
      @ List.map (fun (k, v) -> (k, Util.Json.Int v)) deltas)

(* ---- guarded parallel DOALL execution: measured vs predicted ----

   Still before [analyses]: shard workers fork the parent image, so the
   heap must stay small while the pool runs. Two synthetic kernels sized
   so the loop body dwarfs the fork+IPC overhead (the regime the guarded
   runtime is for), plus two real suites — the DOALL outlier and a
   conflict-prone one — to keep the calibration honest. *)

let parrun_results : Util.Json.t ref = ref Util.Json.Null

let () =
  guarded "guarded parallel execution" @@ fun () ->
  section "Guarded parallel execution — measured vs predicted DOALL speedup";
  (* a big integer reduction: no write set to ship, near-ideal sharding *)
  let synthetic_reduce =
    {|
fn main() -> int {
  var n: int = 300000;
  var a: int[] = new int[n];
  for (var i: int = 0; i < n; i = i + 1) { a[i] = i * 2654435761 + 17; }
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) { s = s + a[i] * a[i]; }
  print_int(s);
  return 0;
}
|}
  in
  (* a big map: every shard ships its write set back to the parent, so the
     commit cost is part of the measured number *)
  let synthetic_map =
    {|
fn main() -> int {
  var n: int = 200000;
  var a: int[] = new int[n];
  var b: int[] = new int[n];
  for (var i: int = 0; i < n; i = i + 1) { a[i] = i * 31 + 7; }
  for (var i: int = 0; i < n; i = i + 1) { b[i] = a[i] * a[i] + a[i] / 3; }
  print_int(b[n - 1]);
  return 0;
}
|}
  in
  let real name =
    match Suites.Suite.find name with
    | Some b -> [ (name, b.Suites.Suite.source) ]
    | None -> []
  in
  let targets =
    [ ("synthetic_reduce", synthetic_reduce); ("synthetic_map", synthetic_map) ]
    @ real "462_libquantum" @ real "181_mcf"
  in
  let knobs = { Parrun.Runner.default_knobs with Parrun.Runner.jobs = 2 } in
  let t =
    Report.Table.create
      [ "target"; "loop"; "commit"; "rollbk"; "serial_s"; "par_s"; "measured"; "predicted" ]
  in
  let series = ref [] in
  List.iter
    (fun (name, src) ->
      match Parrun.Guard.run ~knobs ~target:name src with
      | Error f ->
          Printf.printf "%s: %s\n" name (Loopa.Driver.failure_to_string f)
      | Ok r ->
          assert r.Parrun.Guard.identical;
          List.iter
            (fun (row : Report.Calibration.row) ->
              if row.Report.Calibration.invocations > 0 then begin
                let fopt = function
                  | None -> "-"
                  | Some f -> Printf.sprintf "%.2fx" f
                in
                Report.Table.add_row t
                  [
                    name;
                    Printf.sprintf "%s:bb%d" row.Report.Calibration.fname
                      row.Report.Calibration.header;
                    string_of_int row.Report.Calibration.committed;
                    string_of_int row.Report.Calibration.rollbacks;
                    Printf.sprintf "%.4f" row.Report.Calibration.serial_s;
                    Printf.sprintf "%.4f" row.Report.Calibration.parallel_s;
                    fopt row.Report.Calibration.measured;
                    fopt row.Report.Calibration.predicted;
                  ];
                let jf = function
                  | None -> Util.Json.Null
                  | Some f -> Util.Json.Float f
                in
                series :=
                  Util.Json.Obj
                    [
                      ("target", Util.Json.String name);
                      ( "loop",
                        Util.Json.String
                          (Printf.sprintf "%s:bb%d" row.Report.Calibration.fname
                             row.Report.Calibration.header) );
                      ( "committed",
                        Util.Json.Int row.Report.Calibration.committed );
                      ( "rollbacks",
                        Util.Json.Int row.Report.Calibration.rollbacks );
                      ( "conflicts",
                        Util.Json.Int row.Report.Calibration.conflicts );
                      ( "serial_s",
                        Util.Json.Float row.Report.Calibration.serial_s );
                      ( "parallel_s",
                        Util.Json.Float row.Report.Calibration.parallel_s );
                      ("measured", jf row.Report.Calibration.measured);
                      ("predicted", jf row.Report.Calibration.predicted);
                    ]
                  :: !series
              end)
            r.Parrun.Guard.rows)
    targets;
  print_endline (Report.Table.render t);
  print_endline
    "(reduction shards ship one accumulator back; map shards ship their whole\n\
    \ write set — the gap between the two measured columns is the commit cost)";
  (* record the host core count next to the measurements: on a 1-core
     container the shards timeshare the CPU, so measured speedup is capped
     below 1 by construction — the series is only comparable PR-over-PR
     alongside this field *)
  let cores = Exec.Pool.detect_jobs () in
  if cores < 2 then
    Printf.printf
      "note: %d core(s) online — shards timeshare the CPU, measured speedup \
       is capped below 1x on this host\n"
      cores;
  parrun_results :=
    Util.Json.Obj
      [
        ("jobs", Util.Json.Int knobs.Parrun.Runner.jobs);
        ("cores", Util.Json.Int cores);
        ("parallel_loop_speedup", Util.Json.List (List.rev !series));
      ]

(* ---- shared: profile every benchmark once ---- *)

let analyses : (Suites.Suite.benchmark * Loopa.Driver.analysis) list =
  let benches = Suites.Suite.all () in
  let benches =
    if quick then
      List.filteri (fun i _ -> i mod 5 = 0) benches (* a spread of suites *)
    else benches
  in
  Printf.printf "profiling %d benchmarks (instrumented run + classification)...\n%!"
    (List.length benches);
  let t0 = Sys.time () in
  let r =
    List.map
      (fun (b : Suites.Suite.benchmark) ->
        (b, Loopa.Driver.analyze_source ~fuel:200_000_000 b.Suites.Suite.source))
      benches
  in
  Printf.printf "profiled in %.1fs cpu\n%!" (Sys.time () -. t0);
  r

let of_category cat =
  List.filter (fun ((b : Suites.Suite.benchmark), _) -> b.Suites.Suite.category = cat) analyses

let categories = Suites.Suite.categories

let speedups_for cfg cat =
  List.map (fun (_, a) -> (Loopa.Driver.evaluate a cfg).Loopa.Evaluate.speedup) (of_category cat)

let coverage_for cfg cat =
  List.map
    (fun (_, a) ->
      Float.max 1.0 (Loopa.Driver.evaluate a cfg).Loopa.Evaluate.coverage_pct)
    (of_category cat)

(* ---- Table I: census of ordering constraints ---- *)

let table1 () =
  section "Table I — ordering constraints observed across the suites";
  print_endline
    "(static register-LCD classes from SCEV/recurrence analysis; memory-LCD\n\
     frequency and register predictability judged from the dynamic profile)";
  let t =
    Report.Table.create
      [
        "suite"; "IV/MIV"; "reduction"; "predictable"; "unpredictable"; "mem:freq";
        "mem:infreq"; "mem:none"; "with-calls"; "invocations";
      ]
  in
  List.iter
    (fun cat ->
      let c = Loopa.Taxonomy.empty () in
      List.iter (fun (_, a) -> ignore (Loopa.Taxonomy.add_profile c a.Loopa.Driver.profile))
        (of_category cat);
      Report.Table.add_row t
        [
          Suites.Suite.category_name cat;
          string_of_int c.Loopa.Taxonomy.reg_computable;
          string_of_int c.Loopa.Taxonomy.reg_reduction;
          string_of_int c.Loopa.Taxonomy.reg_predictable;
          string_of_int c.Loopa.Taxonomy.reg_unpredictable;
          string_of_int c.Loopa.Taxonomy.mem_frequent_loops;
          string_of_int c.Loopa.Taxonomy.mem_infrequent_loops;
          string_of_int c.Loopa.Taxonomy.mem_clean_loops;
          string_of_int c.Loopa.Taxonomy.loops_with_calls;
          string_of_int c.Loopa.Taxonomy.total_invocations;
        ])
    categories;
  print_endline (Report.Table.render t);
  print_endline
    "paper shape: non-numeric suites dominated by non-computable/unpredictable\n\
     register LCDs, frequent memory LCDs and calls; numeric suites by IVs and\n\
     reductions with clean or infrequent memory behaviour."

(* ---- Table II: the configuration lattice ---- *)

let table2 () =
  section "Table II — configuration flags";
  let t = Report.Table.create [ "flag"; "definition" ] in
  List.iter
    (fun (f, d) -> Report.Table.add_row t [ f; d ])
    [
      ("reduc0", "reductions are treated as non-computable LCDs");
      ("reduc1", "reductions are considered parallel with no overheads");
      ("dep0", "non-computable LCDs are not considered parallelizable");
      ("dep1", "non-computable LCDs lowered to memory (frequent memory LCDs)");
      ("dep2", "non-computable LCDs accelerated by realistic value prediction");
      ("dep3", "non-computable LCDs accelerated by perfect value prediction");
      ("fn0", "loops with any function calls are sequential");
      ("fn1", "only pure calls are considered parallel");
      ("fn2", "pure + thread-safe library + instrumented user calls parallel");
      ("fn3", "all function calls can be parallelized");
    ];
  print_endline (Report.Table.render t);
  Printf.printf "evaluated ladder (Figures 2 & 3): %s\n"
    (String.concat ", " (List.map Loopa.Config.name Loopa.Config.figure_ladder))

(* ---- Figure 1: execution-model schedules on a worked example ---- *)

(* The worked example: four iterations of cost 4 and, when [conflict], a RAW
   dependency from iteration 1 into iteration 2 with a stall of 1. *)
let figure1_input ~conflict =
  {
    Loopa.Model.iter_costs = [| 4.0; 4.0; 4.0; 4.0 |];
    n_iters = 4;
    serial = 16.0;
    slowest = 4.0;
    conf_iter = [| 2 |];
    conf_delta = [| 1.0 |];
    conf_prod = [| 1 |];
    n_conflicts = (if conflict then 1 else 0);
    reg_sync_delta = 0.0;
    serial_static = false;
  }

let figure1 () =
  section "Figure 1 — parallel execution models on a 4-iteration loop";
  let base = figure1_input ~conflict:false in
  let with_conflict = figure1_input ~conflict:true in
  let show name = function
    | Some c -> Printf.sprintf "%s: parallel cost %.0f (serial 16)" name c
    | None -> Printf.sprintf "%s: serial (cost 16)" name
  in
  print_endline "iterations of cost 4; a RAW dependency hits iteration 2:";
  print_endline (show "  (a) DOALL        " (Loopa.Model.doall_cost with_conflict));
  print_endline (show "  (b) Partial-DOALL" (Loopa.Model.pdoall_cost with_conflict));
  print_endline (show "  (c) HELIX-style  " (Loopa.Model.helix_cost with_conflict));
  print_endline "and with no conflict at all:";
  print_endline (show "      DOALL        " (Loopa.Model.doall_cost base));
  print_endline
    "paper shape: DOALL abandons on the conflict; PDOALL restarts a phase (2x\n\
     the slowest iteration); HELIX synchronizes and pays delta per iteration."

(* ---- Figures 2 & 3: geomean speedups over the config ladder ---- *)

let figure_speedups ~title ~cats ~paper_note () =
  section title;
  let t =
    Report.Table.create
      ("configuration" :: List.map Suites.Suite.category_name cats)
  in
  List.iter
    (fun cfg ->
      Report.Table.add_row t
        (Loopa.Config.name cfg
        :: List.map
             (fun cat -> Printf.sprintf "%.2f" (Report.Stats.geomean (speedups_for cfg cat)))
             cats))
    Loopa.Config.figure_ladder;
  print_endline (Report.Table.render t);
  print_endline paper_note;
  (* the headline rungs as a log-scale bar chart, like the paper's figure *)
  let best = Loopa.Config.best_helix in
  print_endline "\nbest HELIX rung (reduc1-dep1-fn2), per suite:";
  print_endline
    (Report.Table.log_bars
       (List.map
          (fun cat ->
            ( Suites.Suite.category_name cat,
              Report.Stats.geomean (speedups_for best cat) ))
          cats))

let figure2 () =
  figure_speedups
    ~title:"Figure 2 — GEOMEAN speedups, non-numeric (SpecINT 2000 & 2006)"
    ~cats:[ Suites.Suite.Int2000; Suites.Suite.Int2006 ]
    ~paper_note:
      "paper shape: DOALL 1.1-1.3x; dep2/fn2 PDOALL rungs reach 1.2-2.0x;\n\
       perfect dep3-fn3 2.0-2.6x; HELIX reduc1-dep1-fn2 tops at 4.6x (INT2000)\n\
       and 7.2x (INT2006). Reductions (reduc1) barely move the INT suites." ()

let figure3 () =
  figure_speedups
    ~title:"Figure 3 — GEOMEAN speedups, numeric (EEMBC, SpecFP 2000 & 2006)"
    ~cats:[ Suites.Suite.Eembc; Suites.Suite.Fp2000; Suites.Suite.Fp2006 ]
    ~paper_note:
      "paper shape: DOALL 1.6-3.1x (reduc0) to 2.2-3.6x (reduc1); PDOALL dep2\n\
       2.9-4.6x; fn2 lifts EEMBC strongly; best-realistic PDOALL 6.0-10.7x;\n\
       dep3-fn3 10-92x; HELIX reduc1-dep1-fn2 21.6-50.6x. Our kernel-only\n\
       programs overshoot the absolute numbers (no serial harness code);\n\
       the rung ordering and suite contrasts match (see EXPERIMENTS.md)." ()

(* ---- Figure 4: per-benchmark best PDOALL vs best HELIX ---- *)

let figure4 () =
  section "Figure 4 — all SPEC speedups, best PDOALL vs best HELIX";
  Printf.printf "PDOALL = %s, HELIX = %s\n\n"
    (Loopa.Config.name Loopa.Config.best_pdoall)
    (Loopa.Config.name Loopa.Config.best_helix);
  let t = Report.Table.create [ "benchmark"; "suite"; "best PDOALL"; "best HELIX"; "winner" ] in
  let pd_wins = ref [] in
  List.iter
    (fun ((b : Suites.Suite.benchmark), a) ->
      if not (b.Suites.Suite.category = Suites.Suite.Eembc) then begin
        let sp = (Loopa.Driver.evaluate a Loopa.Config.best_pdoall).Loopa.Evaluate.speedup in
        let sh = (Loopa.Driver.evaluate a Loopa.Config.best_helix).Loopa.Evaluate.speedup in
        if sp > sh +. 0.005 then pd_wins := b.Suites.Suite.name :: !pd_wins;
        Report.Table.add_row t
          [
            b.Suites.Suite.name;
            Suites.Suite.category_name b.Suites.Suite.category;
            Printf.sprintf "%.2f" sp;
            Printf.sprintf "%.2f" sh;
            (if sp > sh +. 0.005 then "PDOALL" else "HELIX");
          ]
      end)
    analyses;
  print_endline (Report.Table.render t);
  Printf.printf "\nPDOALL wins on: %s\n" (String.concat ", " (List.rev !pd_wins));
  print_endline
    "paper shape: HELIX wins consistently on non-numeric benchmarks, but a few\n\
     (179_art, 450_soplex, 482_sphinx, 429_mcf) prefer PDOALL: loops with a low\n\
     inter-iteration conflict rate pay HELIX's synchronization for nothing."

(* ---- Figure 5: dynamic coverage ---- *)

let figure5 () =
  section "Figure 5 — dynamic coverage (GEOMEAN, % of instructions in parallel loops)";
  let t =
    Report.Table.create
      ("configuration" :: List.map Suites.Suite.category_name categories)
  in
  List.iter
    (fun cfg ->
      Report.Table.add_row t
        (Loopa.Config.name cfg
        :: List.map
             (fun cat ->
               Printf.sprintf "%.1f" (Report.Stats.geomean (coverage_for cfg cat)))
             categories))
    Loopa.Config.coverage_configs;
  print_endline (Report.Table.render t);
  print_endline
    "paper shape: coverage for the non-numeric suites jumps dramatically from\n\
     dep0-fn2 PDOALL to dep0-fn2 HELIX to dep1-fn2 HELIX; the numeric suites\n\
     start high and saturate. Amdahl: the HELIX gains in Figure 2 come from\n\
     this coverage, not from higher per-loop parallelism."

(* ---- ablations over the design choices DESIGN.md fixes ---- *)

let ablation_sample () =
  (* a cross-section: PDOALL-sensitive, HELIX-sensitive, predictor-sensitive *)
  List.filter
    (fun ((b : Suites.Suite.benchmark), _) ->
      List.mem b.Suites.Suite.name
        [ "181_mcf"; "164_gzip"; "179_art"; "456_hmmer"; "254_gap"; "482_sphinx" ])
    analyses

let ablation_pdoall_cutoff () =
  section "Ablation A — Partial-DOALL conflict cutoff (paper: 0.8)";
  let sample = ablation_sample () in
  let t =
    Report.Table.create
      ("cutoff" :: List.map (fun ((b : Suites.Suite.benchmark), _) -> b.Suites.Suite.name) sample)
  in
  List.iter
    (fun cutoff ->
      let knobs = { Loopa.Evaluate.default_knobs with Loopa.Evaluate.pdoall_cutoff = cutoff } in
      Report.Table.add_row t
        (Printf.sprintf "%.2f" cutoff
        :: List.map
             (fun (_, a) ->
               Printf.sprintf "%.2f"
                 (Loopa.Driver.evaluate ~knobs a Loopa.Config.best_pdoall).Loopa.Evaluate.speedup)
             sample))
    [ 0.2; 0.5; 0.8; 0.95 ];
  print_endline (Report.Table.render t);
  print_endline
    "a lower cutoff makes PDOALL give up earlier on conflict-heavy loops; the\n\
     paper's 0.8 keeps rare-conflict loops (mcf-like) parallel without paying\n\
     for crowds of restarts."

let ablation_helix_delta () =
  section "Ablation B — HELIX stall model: raw delta vs distance-normalized";
  let sample = ablation_sample () in
  let t = Report.Table.create [ "benchmark"; "raw (paper)"; "normalized" ] in
  List.iter
    (fun ((b : Suites.Suite.benchmark), a) ->
      let raw = (Loopa.Driver.evaluate a Loopa.Config.best_helix).Loopa.Evaluate.speedup in
      let knobs =
        { Loopa.Evaluate.default_knobs with Loopa.Evaluate.helix_distance_normalized = true }
      in
      let norm = (Loopa.Driver.evaluate ~knobs a Loopa.Config.best_helix).Loopa.Evaluate.speedup in
      Report.Table.add_row t
        [ b.Suites.Suite.name; Printf.sprintf "%.2f" raw; Printf.sprintf "%.2f" norm ])
    sample;
  print_endline (Report.Table.render t);
  print_endline
    "the paper charges the raw producer/consumer delta of the worst manifesting\n\
     LCD on every iteration; the alternative divides it by dependence distance.\n\
     When a loop also has adjacent-iteration manifestations the two coincide\n\
     (distance 1), so differences only appear for loops whose conflicts are\n\
     exclusively long-distance — the raw model is what keeps PDOALL ahead on\n\
     such loops in Figure 4."

let ablation_predictors () =
  section "Ablation C — predictor bank under dep2 (paper: perfect hybrid of 4)";
  let banks =
    [
      ("hybrid-of-4", None);
      ("last-value", Some (fun () -> [ Predictors.Last_value.create () ]));
      ("stride", Some (fun () -> [ Predictors.Stride.create () ]));
      ("2-delta", Some (fun () -> [ Predictors.Two_delta.create () ]));
      ("fcm", Some (fun () -> [ Predictors.Fcm.create () ]));
    ]
  in
  let names = [ "181_mcf"; "254_gap"; "164_gzip"; "456_hmmer" ] in
  let t = Report.Table.create ("bank" :: names) in
  let cfg = Loopa.Config.of_string "reduc1-dep2-fn2 PDOALL" in
  List.iter
    (fun (label, components) ->
      let make_predictor =
        Option.map
          (fun mk () -> Predictors.Hybrid.create ~components:(Some (mk ())) ())
          components
      in
      Report.Table.add_row t
        (label
        :: List.map
             (fun name ->
               let b = Option.get (Suites.Suite.find name) in
               let a =
                 Loopa.Driver.analyze_source ?make_predictor ~fuel:200_000_000
                   b.Suites.Suite.source
               in
               Printf.sprintf "%.2f" (Loopa.Driver.evaluate a cfg).Loopa.Evaluate.speedup)
             names))
    banks;
  print_endline (Report.Table.render t);
  print_endline
    "stride covers the queue cursors (gap-like BFS); last-value covers slow-\n\
     moving state; the hybrid's union is what the dep2 rungs in Figures 2-3 use."

let ablations () =
  ablation_pdoall_cutoff ();
  ablation_helix_delta ();
  ablation_predictors ()

(* ---- lint throughput: the full rule set over every suite program ---- *)

(* (programs, diagnostics, wall seconds); recorded in the BENCH snapshot *)
let lint_results : (int * int * float) ref = ref (0, 0, 0.0)

let lint_throughput () =
  section "Lint — full rule set over every suite program";
  let benches = Suites.Suite.all () in
  let t0 = Unix.gettimeofday () in
  let n_diags =
    List.fold_left
      (fun acc (b : Suites.Suite.benchmark) ->
        let m = Frontend.compile_exn b.Suites.Suite.source in
        acc + List.length (Loopa.Lint.run m))
      0 benches
  in
  let wall = Unix.gettimeofday () -. t0 in
  let n = List.length benches in
  lint_results := (n, n_diags, wall);
  Printf.printf
    "%d programs, %d diagnostics in %.2fs (%.1f programs/s)\n\
     (each program runs verifier + SSA + range/structure/loop rules; the\n\
     dataflow.range and dataflow.audit spans in the snapshot break the cost down)\n"
    n n_diags wall
    (float_of_int n /. Float.max 1e-9 wall)

(* ---- perf snapshot: per-stage timings from the telemetry spans ---- *)

let write_bench_snapshot () =
  let spans = Obs.Telemetry.spans () in
  let counters = Obs.Telemetry.counters () in
  let harness =
    Util.Json.Obj
      [
        ("quick", Util.Json.Bool quick);
        ("cpu_s", Util.Json.Float (Sys.time ()));
        ("n_benchmarks", Util.Json.Int (List.length analyses));
        ( "parallel_scaling",
          (* host core count rides along: on a 1-core machine every
             forked job shares the core, so speedup < 1x is expected,
             not a regression *)
          Util.Json.Obj
            [
              ("cores", Util.Json.Int (Exec.Pool.detect_jobs ()));
              ( "runs",
                Util.Json.List
                  (List.rev_map
                     (fun (jobs, wall, sp) ->
                       Util.Json.Obj
                         [
                           ("jobs", Util.Json.Int jobs);
                           ("wall_s", Util.Json.Float wall);
                           ("speedup", Util.Json.Float sp);
                         ])
                     !scaling_results) );
            ] );
        ("chaos", !chaos_results);
        ("parrun", !parrun_results);
        ( "lint",
          let files, diags, wall = !lint_results in
          Util.Json.Obj
            [
              ("programs", Util.Json.Int files);
              ("diagnostics", Util.Json.Int diags);
              ("wall_s", Util.Json.Float wall);
              ( "programs_per_s",
                Util.Json.Float (float_of_int files /. Float.max 1e-9 wall) );
            ] );
      ]
  in
  let j =
    match Obs.Export.snapshot_json ~spans ~counters with
    | Util.Json.Obj fields -> Util.Json.Obj (("harness", harness) :: fields)
    | j -> j
  in
  let path = if quick then "BENCH_quick.json" else "BENCH_full.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Util.Json.to_string j);
      output_char oc '\n');
  (* every *complete* run also appends to the perf trajectory, one JSONL
     line per run, for `loopapalooza perfdiff --history
     BENCH_history.jsonl`; a run with a failed section keeps its
     diagnostic snapshot but must not enter the history as a data point
     — its missing spans would read as a spurious speedup. *)
  match !section_failures with
  | _ :: _ as fails ->
      Printf.printf
        "\nper-stage perf snapshot (spans + counters): %s\n\
         BENCH_history.jsonl append skipped: section(s) failed partway (%s)\n"
        path
        (String.concat ", " (List.rev fails))
  | [] ->
      let with_stamp =
        match j with
        | Util.Json.Obj fields ->
            Util.Json.Obj
              (("recorded_unix", Util.Json.Float (Unix.gettimeofday ())) :: fields)
        | j -> j
      in
      let oc =
        open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644
          "BENCH_history.jsonl"
      in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Util.Json.to_string with_stamp);
          output_char oc '\n');
      Printf.printf
        "\nper-stage perf snapshot (spans + counters): %s (+ BENCH_history.jsonl)\n"
        path

let () =
  guarded "table1" table1;
  guarded "table2" table2;
  guarded "figure1" figure1;
  guarded "figure2" figure2;
  guarded "figure3" figure3;
  guarded "figure4" figure4;
  guarded "figure5" figure5;
  guarded "lint" lint_throughput;
  if Array.exists (( = ) "--ablation") Sys.argv then guarded "ablations" ablations;
  write_bench_snapshot ();
  print_endline "\ndone."
