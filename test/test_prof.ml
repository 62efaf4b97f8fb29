(* Self-profiling invariants: the hotspot profiler's exact attribution
   partitions the machine clock (folded self-weights sum to
   instructions_retired), folded exports are byte-deterministic across
   runs, profiling never perturbs the guest (zero-cost-when-off parity),
   the sampler is a pure function of the clock, and the perfdiff gate
   passes identical snapshots and catches a 2x slowdown. *)

let contains = Astring_contains.contains

let src =
  {|
fn kernel(a: int[], n: int) -> int {
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) {
    s = s + a[i] * 3;
  }
  return s;
}

fn main() -> int {
  var a: int[] = new int[200];
  for (var i: int = 0; i < 200; i = i + 1) {
    a[i] = i;
  }
  var total: int = 0;
  for (var r: int = 0; r < 10; r = r + 1) {
    total = total + kernel(a, 200);
  }
  print_int(total);
  return 0;
}
|}

let profile_with ?(sample_period = 100) src =
  let h = Prof.Hotspot.create ~sample_period () in
  let a = Loopa.Driver.analyze_source ~hotspot:h src in
  (h, a)

(* ---- exact attribution ---- *)

let test_folded_sums_to_clock () =
  let h, a = profile_with src in
  let clock = a.Loopa.Driver.profile.Loopa.Profile.outcome.Interp.Machine.clock in
  let folded_sum =
    List.fold_left (fun acc (_, w) -> acc + w) 0 (Prof.Hotspot.folded h)
  in
  Alcotest.(check int) "folded weights partition the clock" clock folded_sum;
  Alcotest.(check int) "total_instrs agrees" clock (Prof.Hotspot.total_instrs h);
  let opcode_sum =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Prof.Hotspot.opcode_counts h)
  in
  Alcotest.(check int) "opcode counters partition the clock" clock opcode_sum

let test_frames_qualified () =
  let h, _ = profile_with src in
  let keys = List.map fst (Prof.Hotspot.folded h) in
  Alcotest.(check bool) "kernel loop frame present" true
    (List.exists (fun k -> contains k "kernel:loop0") keys);
  Alcotest.(check bool) "stacks are root-first from main" true
    (List.for_all
       (fun k -> k = "(root)" || String.length k >= 4)
       keys)

(* ---- determinism ---- *)

let test_folded_byte_deterministic () =
  let render h =
    ( Prof.Flamegraph.collapsed (Prof.Hotspot.folded h),
      Prof.Flamegraph.collapsed (Prof.Hotspot.sampled h) )
  in
  let h1, _ = profile_with src in
  let h2, _ = profile_with src in
  let e1, s1 = render h1 and e2, s2 = render h2 in
  Alcotest.(check string) "exact folded byte-identical" e1 e2;
  Alcotest.(check string) "sampled folded byte-identical" s1 s2;
  Alcotest.(check bool) "profiles are non-trivial" true
    (String.length e1 > 0 && String.length s1 > 0)

let test_sampler_is_clock_derived () =
  let period = 250 in
  let h, a = profile_with ~sample_period:period src in
  let clock = a.Loopa.Driver.profile.Loopa.Profile.outcome.Interp.Machine.clock in
  Alcotest.(check int) "one sample per period of retired instructions"
    (clock / period) (Prof.Hotspot.n_samples h);
  let sample_sum =
    List.fold_left (fun acc (_, w) -> acc + w) 0 (Prof.Hotspot.sampled h)
  in
  Alcotest.(check int) "sampled weights sum to the sample count"
    (Prof.Hotspot.n_samples h) sample_sum

(* ---- zero-cost-when-off parity ---- *)

let test_profiling_does_not_perturb () =
  let plain = Loopa.Driver.analyze_source src in
  let _, profiled = profile_with src in
  let oc (a : Loopa.Driver.analysis) =
    a.Loopa.Driver.profile.Loopa.Profile.outcome
  in
  let o1 = oc plain and o2 = oc profiled in
  Alcotest.(check int) "same clock" o1.Interp.Machine.clock
    o2.Interp.Machine.clock;
  Alcotest.(check string) "same output" o1.Interp.Machine.output
    o2.Interp.Machine.output;
  Alcotest.(check int) "same heap high-water" o1.Interp.Machine.mem_words
    o2.Interp.Machine.mem_words;
  let speedup a =
    (Loopa.Driver.evaluate a Loopa.Config.best_pdoall).Loopa.Evaluate.speedup
  in
  Alcotest.(check (float 1e-9)) "same evaluation" (speedup plain)
    (speedup profiled)

let test_finish_idempotent_and_on_trap () =
  let h = Prof.Hotspot.create () in
  let trap_src =
    {|
fn main() -> int {
  var a: int[] = new int[4];
  for (var i: int = 0; i < 10; i = i + 1) {
    a[i] = i;
  }
  return 0;
}
|}
  in
  (match Loopa.Driver.analyze_source ~hotspot:h trap_src with
  | _ -> Alcotest.fail "expected an out-of-bounds trap"
  | exception Interp.Rvalue.Trap _ -> ());
  let total = Prof.Hotspot.total_instrs h in
  Alcotest.(check bool) "trapped run still attributed" true (total > 0);
  Prof.Hotspot.finish h;
  Alcotest.(check int) "finish is idempotent" total
    (Prof.Hotspot.total_instrs h)

(* ---- flamegraph emitters ---- *)

let test_collapsed_merges_and_sorts () =
  let out =
    Prof.Flamegraph.collapsed
      [ ("b;x", 2); ("a", 1); ("b;x", 3); ("zero", 0); ("neg", -4) ]
  in
  Alcotest.(check string) "merged, sorted, non-positive dropped" "a 1\nb;x 5\n"
    out

let test_speedscope_shape () =
  let j = Prof.Flamegraph.speedscope ~name:"t" [ ("main;f", 7); ("main", 3) ] in
  let s = Util.Json.to_string j in
  Alcotest.(check bool) "has schema" true
    (contains s "speedscope.app/file-format-schema.json");
  let member k j = Option.get (Util.Json.member k j) in
  let profile =
    match Util.Json.to_list (member "profiles" j) with
    | Some [ p ] -> p
    | _ -> Alcotest.fail "expected exactly one profile"
  in
  Alcotest.(check (option int)) "endValue is the total weight" (Some 10)
    (Util.Json.to_int (member "endValue" profile));
  let frames =
    Option.get (Util.Json.to_list (member "frames" (member "shared" j)))
  in
  Alcotest.(check int) "two distinct frames" 2 (List.length frames);
  let samples = Option.get (Util.Json.to_list (member "samples" profile)) in
  let weights = Option.get (Util.Json.to_list (member "weights" profile)) in
  Alcotest.(check int) "one weight per sample" (List.length samples)
    (List.length weights)

let test_write_files () =
  let h, _ = profile_with src in
  let dir = Filename.temp_file "prof_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths =
    Prof.Hotspot.write_files h ~base:(Filename.concat dir "k.folded") ~name:"k"
  in
  Alcotest.(check int) "three artifacts" 3 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " exists and is non-empty") true
        (Sys.file_exists p && (Unix.stat p).Unix.st_size > 0))
    paths;
  (* the .folded base suffix is stripped, not doubled *)
  Alcotest.(check bool) "no doubled suffix" false
    (List.exists (fun p -> contains p ".folded.folded") paths);
  List.iter Sys.remove paths;
  Unix.rmdir dir

(* ---- perfdiff ---- *)

let snapshot ~wall ~rate =
  Util.Json.Obj
    [
      ( "harness",
        Util.Json.Obj
          [
            ("quick", Util.Json.Bool true);
            ( "bench",
              Util.Json.Obj
                [
                  ("wall_s", Util.Json.Float wall);
                  ("tasks_per_s", Util.Json.Float rate);
                  ("n_benchmarks", Util.Json.Int 58);
                ] );
          ] );
    ]

let test_perfdiff_identical_passes () =
  let s = snapshot ~wall:1.0 ~rate:100.0 in
  let vs = Report.Perfdiff.compare_snapshots ~old_:s ~new_:s () in
  Alcotest.(check int) "two comparable series" 2 (List.length vs);
  Alcotest.(check int) "no regressions" 0
    (List.length (Report.Perfdiff.regressions vs))

let test_perfdiff_catches_2x_slowdown () =
  let old_ = snapshot ~wall:1.0 ~rate:100.0 in
  let new_ = snapshot ~wall:2.0 ~rate:50.0 in
  let regs =
    Report.Perfdiff.regressions
      (Report.Perfdiff.compare_snapshots ~old_ ~new_ ())
  in
  Alcotest.(check int) "both series regress" 2 (List.length regs);
  Alcotest.(check bool) "seconds series flagged lower-better" true
    (List.exists
       (fun v ->
         contains v.Report.Perfdiff.v_path "wall_s"
         && v.Report.Perfdiff.v_dir = Report.Perfdiff.Lower_better)
       regs)

let test_perfdiff_improvement_not_flagged () =
  let old_ = snapshot ~wall:2.0 ~rate:50.0 in
  let new_ = snapshot ~wall:1.0 ~rate:100.0 in
  let vs = Report.Perfdiff.compare_snapshots ~old_ ~new_ () in
  Alcotest.(check int) "improvements pass" 0
    (List.length (Report.Perfdiff.regressions vs));
  Alcotest.(check bool) "worse_by is negative" true
    (List.for_all (fun v -> v.Report.Perfdiff.v_worse_by < 0.0) vs)

let test_perfdiff_counts_skipped () =
  let s = snapshot ~wall:1.0 ~rate:100.0 in
  let vs = Report.Perfdiff.compare_snapshots ~old_:s ~new_:s () in
  Alcotest.(check bool) "n_benchmarks (a count) is not compared" false
    (List.exists
       (fun v -> contains v.Report.Perfdiff.v_path "n_benchmarks")
       vs)

let test_perfdiff_history_median () =
  let history =
    [
      snapshot ~wall:1.0 ~rate:100.0;
      snapshot ~wall:1.1 ~rate:95.0;
      snapshot ~wall:0.9 ~rate:105.0;
    ]
  in
  let ok =
    Report.Perfdiff.compare_history ~history
      ~new_:(snapshot ~wall:1.05 ~rate:98.0)
      ()
  in
  Alcotest.(check int) "within historical noise" 0
    (List.length (Report.Perfdiff.regressions ok));
  let bad =
    Report.Perfdiff.compare_history ~history
      ~new_:(snapshot ~wall:2.5 ~rate:40.0)
      ()
  in
  Alcotest.(check bool) "2.5x over the median regresses" true
    (Report.Perfdiff.regressions bad <> [])

let () =
  Alcotest.run "prof"
    [
      ( "hotspot",
        [
          Alcotest.test_case "folded sums to machine clock" `Quick
            test_folded_sums_to_clock;
          Alcotest.test_case "loop frames qualified" `Quick
            test_frames_qualified;
          Alcotest.test_case "folded byte-deterministic" `Quick
            test_folded_byte_deterministic;
          Alcotest.test_case "sampler derived from clock" `Quick
            test_sampler_is_clock_derived;
          Alcotest.test_case "profiling does not perturb" `Quick
            test_profiling_does_not_perturb;
          Alcotest.test_case "finish on trap + idempotent" `Quick
            test_finish_idempotent_and_on_trap;
        ] );
      ( "flamegraph",
        [
          Alcotest.test_case "collapsed merges and sorts" `Quick
            test_collapsed_merges_and_sorts;
          Alcotest.test_case "speedscope shape" `Quick test_speedscope_shape;
          Alcotest.test_case "write_files artifacts" `Quick test_write_files;
        ] );
      ( "perfdiff",
        [
          Alcotest.test_case "identical snapshots pass" `Quick
            test_perfdiff_identical_passes;
          Alcotest.test_case "2x slowdown caught" `Quick
            test_perfdiff_catches_2x_slowdown;
          Alcotest.test_case "improvement not flagged" `Quick
            test_perfdiff_improvement_not_flagged;
          Alcotest.test_case "counts skipped" `Quick test_perfdiff_counts_skipped;
          Alcotest.test_case "history median gate" `Quick
            test_perfdiff_history_median;
        ] );
    ]
