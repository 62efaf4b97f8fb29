(* Limit-study core: configuration lattice, static classification, profile
   collection invariants, and end-to-end evaluation semantics for each flag
   of Table II, checked on purpose-built micro-programs. *)

let analyze src = Loopa.Driver.analyze_source ~fuel:50_000_000 src

let speedup a cfg = (Loopa.Driver.evaluate a cfg).Loopa.Evaluate.speedup

let cfg = Loopa.Config.of_string

(* ---- config ---- *)

let test_config_parse_print () =
  List.iter
    (fun c ->
      let c' = Loopa.Config.of_string (Loopa.Config.name c) in
      Alcotest.(check string) "roundtrip" (Loopa.Config.name c) (Loopa.Config.name c'))
    Loopa.Config.figure_ladder;
  Alcotest.(check string) "default model" "reduc1-dep2-fn1 PDOALL"
    (Loopa.Config.name (cfg "reduc1-dep2-fn1"));
  Alcotest.(check string) "model first" "reduc0-dep0-fn0 HELIX"
    (Loopa.Config.name (cfg "HELIX reduc0-dep0-fn0"));
  Alcotest.check_raises "garbage" (Loopa.Config.Bad_config "bad configuration \"nope\"")
    (fun () -> ignore (cfg "nope"))

let test_config_validate () =
  Alcotest.(check bool) "doall+dep2 rejected" true
    (Result.is_error (Loopa.Config.validate (cfg "reduc0-dep2-fn0 DOALL")));
  Alcotest.(check bool) "doall+dep0 fine" true
    (Result.is_ok (Loopa.Config.validate (cfg "reduc0-dep0-fn0 DOALL")));
  Alcotest.(check bool) "helix+dep3 fine" true
    (Result.is_ok (Loopa.Config.validate (cfg "reduc0-dep3-fn0 HELIX")))

let test_config_ladder () =
  Alcotest.(check int) "14 rungs" 14 (List.length Loopa.Config.figure_ladder);
  Alcotest.(check string) "best pdoall" "reduc1-dep2-fn2 PDOALL"
    (Loopa.Config.name Loopa.Config.best_pdoall);
  Alcotest.(check string) "best helix" "reduc1-dep1-fn2 HELIX"
    (Loopa.Config.name Loopa.Config.best_helix)

(* ---- classification ---- *)

let classify src =
  let m = Frontend.compile_exn src in
  Loopa.Driver.prepare m

let all_loop_phis ms =
  Hashtbl.fold
    (fun _ fs acc ->
      Array.fold_left
        (fun acc ls ->
          Array.fold_left (fun acc pi -> pi.Loopa.Classify.cls :: acc) acc
            ls.Loopa.Classify.phis)
        acc fs.Loopa.Classify.loops)
    ms.Loopa.Classify.funcs []

let test_classify_classes () =
  let ms =
    classify
      {|
fn main() -> int {
  var a: int[] = new int[64];
  var s: int = 0;       // reduction
  var p: int = 1;       // non-computable (memory-fed)
  for (var i: int = 0; i < 63; i = i + 1) {  // computable IV
    s = s + a[i];
    p = a[p];
  }
  print_int(s + p);
  return 0;
}
|}
  in
  let cls = all_loop_phis ms in
  let count p = List.length (List.filter p cls) in
  Alcotest.(check int) "three header phis" 3 (List.length cls);
  Alcotest.(check int) "one computable" 1
    (count (fun c -> c = Loopa.Classify.Computable));
  Alcotest.(check int) "one reduction" 1
    (count (function Loopa.Classify.Reduction _ -> true | _ -> false));
  Alcotest.(check int) "one non-computable" 1
    (count (fun c -> c = Loopa.Classify.Non_computable))

let test_purity () =
  let ms =
    classify
      {|
fn pure_helper(x: int) -> int { return x * 2 + 1; }
fn reads_only(a: int[]) -> int { return a[0] + pure_helper(3); }
fn writes(a: int[]) { a[0] = 1; }
fn prints(x: int) { print_int(x); }
fn recursive_pure(n: int) -> int {
  if (n <= 0) { return 0; }
  return recursive_pure(n - 1) + 1;
}
fn calls_writer(a: int[]) { writes(a); }
fn main() -> int {
  var a: int[] = new int[4];
  writes(a);
  prints(reads_only(a) + recursive_pure(3) + pure_helper(1));
  calls_writer(a);
  return 0;
}
|}
  in
  let pure name = (Loopa.Classify.func_static ms name).Loopa.Classify.pure in
  Alcotest.(check bool) "pure_helper" true (pure "pure_helper");
  Alcotest.(check bool) "reads_only pure (read-only)" true (pure "reads_only");
  Alcotest.(check bool) "writes impure" false (pure "writes");
  Alcotest.(check bool) "prints impure" false (pure "prints");
  Alcotest.(check bool) "recursive pure" true (pure "recursive_pure");
  Alcotest.(check bool) "transitively impure" false (pure "calls_writer");
  Alcotest.(check bool) "main impure" false (pure "main")

(* ---- profile invariants ---- *)

let test_profile_structure () =
  let a =
    analyze
      {|
fn main() -> int {
  var t: int = 0;
  for (var i: int = 0; i < 4; i = i + 1) {
    for (var j: int = 0; j < 3; j = j + 1) {
      t = t + i * j;
    }
  }
  print_int(t);
  return 0;
}
|}
  in
  let p = a.Loopa.Driver.profile in
  Alcotest.(check int) "5 invocations (1 outer + 4 inner)" 5
    (Array.length p.Loopa.Profile.invs);
  Array.iteri
    (fun id inv ->
      Alcotest.(check bool) "parent precedes child" true (inv.Loopa.Profile.parent < id);
      let costs = Loopa.Profile.iter_costs inv in
      Alcotest.(check int) "iteration costs cover the invocation"
        (inv.Loopa.Profile.end_clock - inv.Loopa.Profile.start_clock)
        (Array.fold_left ( + ) 0 costs);
      Array.iter
        (fun c -> Alcotest.(check bool) "positive iteration cost" true (c > 0))
        costs)
    p.Loopa.Profile.invs;
  let outer = p.Loopa.Profile.invs.(0) in
  (* 4 body executions + the final failing header test *)
  Alcotest.(check int) "outer has 5 header arrivals" 5 (Loopa.Profile.n_iters outer);
  Alcotest.(check int) "outer is top-level" (-1) outer.Loopa.Profile.parent

(* ---- memory RAW detection edge cases ----

   Each program is profiled with and without static pruning. Expectations
   list every invocation in creation order as (n_mem_deps, [(consumer
   iteration, producer iteration)]). In all of them the producing write
   lands after the consuming read within an iteration, so every recorded
   stall delta is positive. *)

let raw_profile ~static_prune src =
  (Loopa.Driver.analyze_source ~fuel:1_000_000 ~static_prune src).Loopa.Driver.profile

let raw_summary (p : Loopa.Profile.profile) =
  Array.to_list
    (Array.map
       (fun (inv : Loopa.Profile.inv) ->
         let conflicts =
           Hashtbl.fold
             (fun k (delta, prod) acc ->
               Alcotest.(check bool)
                 (Printf.sprintf "delta at iteration %d is positive" k)
                 true (delta > 0.0);
               (k, prod) :: acc)
             inv.Loopa.Profile.mem_conflicts []
         in
         (inv.Loopa.Profile.n_mem_deps, List.sort compare conflicts))
       p.Loopa.Profile.invs)

let check_raw name src expected =
  List.iter
    (fun static_prune ->
      Alcotest.(check (list (pair int (list (pair int int)))))
        (Printf.sprintf "%s (static_prune %b)" name static_prune)
        expected
        (raw_summary (raw_profile ~static_prune src)))
    [ true; false ]

(* Static verdict of [main]'s loop at nest depth [depth] (1 = outermost). *)
let verdict_at_depth src depth =
  let ms = classify src in
  let loops = (Loopa.Classify.func_static ms "main").Loopa.Classify.loops in
  let ls = List.find (fun ls -> ls.Loopa.Classify.depth = depth) (Array.to_list loops) in
  ls.Loopa.Classify.dep.Deptest.Analysis.verdict

(* Outer iteration i writes a[0] after an inner loop that reads it: the
   reads in outer iterations 1..3 see the previous outer iteration's write.
   The write precedes every inner invocation, so none of them conflicts. *)
let raw_outer_write_inner_read =
  {|
fn main() -> int {
  var a: int[] = new int[4];
  var s: int = 0;
  for (var i: int = 0; i < 4; i = i + 1) {
    for (var j: int = 0; j < 2; j = j + 1) { s = s + a[0]; }
    a[0] = i;
  }
  print_int(s);
  return 0;
}
|}

let test_raw_outer_write_inner_read () =
  check_raw "outer write, later inner read" raw_outer_write_inner_read
    [ (6, [ (1, 0); (2, 1); (3, 2) ]); (0, []); (0, []); (0, []); (0, []) ]

(* a[2] is written before the loop: reading it never conflicts. a[3] is
   written once, in iteration 0, and read in every iteration. a[1] is
   rewritten at the top of every iteration, just before its read. *)
let test_raw_write_outside_loops () =
  check_raw "write outside any loop"
    {|
fn main() -> int {
  var a: int[] = new int[4];
  a[2] = 7;
  var s: int = 0;
  for (var i: int = 0; i < 3; i = i + 1) {
    a[1] = i;
    s = s + a[1] + a[2] + a[3];
    if (i == 0) { a[3] = 1; }
  }
  print_int(s);
  return 0;
}
|}
    [ (2, [ (1, 0); (2, 0) ]) ]

(* The inner loop is statically Proven_doall, so under pruning its own
   invocations skip tracking; its writes must still reach the tracked outer
   loop, whose next iteration reads them. *)
let raw_pruned_inner_write =
  {|
fn main() -> int {
  var a: int[] = new int[4];
  var s: int = 0;
  for (var i: int = 0; i < 4; i = i + 1) {
    s = s + a[0] + a[1];
    for (var j: int = 0; j < 2; j = j + 1) { a[j] = i + j; }
  }
  print_int(s);
  return 0;
}
|}

let test_raw_pruned_inner_write () =
  Alcotest.(check bool) "inner loop proven doall" true
    (verdict_at_depth raw_pruned_inner_write 2 = Deptest.Analysis.Proven_doall);
  Alcotest.(check bool) "outer loop not proven doall" true
    (verdict_at_depth raw_pruned_inner_write 1 <> Deptest.Analysis.Proven_doall);
  check_raw "write in a pruned inner loop" raw_pruned_inner_write
    [ (6, [ (1, 0); (2, 1); (3, 2) ]); (0, []); (0, []); (0, []); (0, []) ]

(* a[1] and b[4999] are never written; b[4999] lies past every word
   written so far. Only the a[0] chain conflicts. *)
let test_raw_never_written () =
  check_raw "read of a never-written word"
    {|
fn main() -> int {
  var a: int[] = new int[2];
  var b: int[] = new int[5000];
  var s: int = 0;
  for (var i: int = 0; i < 3; i = i + 1) {
    s = s + b[4999] + a[1] + a[0];
    a[0] = s;
  }
  print_int(s);
  return 0;
}
|}
    [ (2, [ (1, 0); (2, 1) ]) ]

(* Builtin writes: arrfill writes a[0..1] and arrcopy writes b[0..2] late in
   every iteration; the next iteration reads a[1] and b[2]. arrcopy's own
   reads of a[0..1] see the same iteration's arrfill, and a[2] is never
   written. *)
let test_raw_builtin_writes () =
  check_raw "arrcopy/arrfill writes"
    {|
fn main() -> int {
  var a: int[] = new int[4];
  var b: int[] = new int[4];
  var s: int = 0;
  for (var i: int = 0; i < 3; i = i + 1) {
    s = s + a[1] + b[2];
    var f: int = arrfill(a, i, 2);
    var c: int = arrcopy(b, a, 3);
    s = s + f + c;
  }
  print_int(s);
  return 0;
}
|}
    [ (4, [ (1, 0); (2, 1) ]) ]

(* The listener hears of a store before the machine bounds-checks it. A
   store a trillion words past the heap must end the run as an
   out-of-bounds trap; it must not size the listener's shadow memory. *)
let test_raw_wild_store_traps () =
  let ms =
    classify
      {|
fn main() -> int {
  var a: int[] = new int[4];
  for (var i: int = 0; i < 3; i = i + 1) {
    a[i * 1000000000000] = i;
  }
  return 0;
}
|}
  in
  match Loopa.Driver.profile_result ~static_prune:false ms with
  | Ok _ -> Alcotest.fail "expected an out-of-bounds trap"
  | Error f ->
      Alcotest.(check string) "failure class" "trap:out_of_bounds"
        (Loopa.Driver.fingerprint_class f.Loopa.Driver.fingerprint)

(* One pass over the 5M-fuel profiles (every registered program, with and
   without static pruning) feeds two goldens: the digest of each profile and
   the digest of every report [Evaluate] makes from it. *)
let digests =
  lazy
    (Profile_digest.map_profiles (fun p ->
         (Profile_digest.digest_of_profile p, Evaluate_digest.digest_of_reports p)))

(* The digests [pick] selects must match [golden/<name>.json] bit for bit. On
   a mismatch the fresh digests are written next to the test binary, ready to
   review and copy over the golden when a change is meant to alter them. *)
let check_golden name pick =
  let golden_path = "golden/" ^ name ^ ".json" in
  let actual_path = name ^ ".actual.json" in
  let golden = In_channel.with_open_bin golden_path In_channel.input_all in
  let actual =
    Profile_digest.render
      (List.map
         (fun (prog, ds) -> (prog, List.map (fun (sp, d) -> (sp, pick d)) ds))
         (Lazy.force digests))
  in
  if actual <> golden then begin
    Out_channel.with_open_bin actual_path (fun oc -> output_string oc actual);
    let lines s = String.split_on_char '\n' s in
    let changed =
      List.filter (fun l -> not (List.mem l (lines golden))) (lines actual)
    in
    Alcotest.failf "%s differ from %s (fresh copy: %s/%s):\n%s" name golden_path
      (Sys.getcwd ()) actual_path (String.concat "\n" changed)
  end

let test_profile_digests () = check_golden "profile_digests" fst

let test_evaluate_digests () = check_golden "evaluate_digests" snd

(* ---- end-to-end evaluation semantics ---- *)

(* n independent heavy iterations: DOALL speedup must approach n on the loop;
   whole-program speedup is Amdahl-limited but must be > 3 here. *)
let test_independent_loop_parallel () =
  let a =
    analyze
      {|
fn main() -> int {
  var a: int[] = new int[64];
  for (var i: int = 0; i < 64; i = i + 1) {
    a[i] = (i * 2654435761) & 1023;
  }
  print_int(a[63]);
  return 0;
}
|}
  in
  let s = speedup a (cfg "reduc0-dep0-fn0 DOALL") in
  Alcotest.(check bool) (Printf.sprintf "doall speedup %.2f > 3" s) true (s > 3.0)

(* A loop-carried memory chain: no model may speed it up meaningfully when
   the producer lands at the very end of the iteration. *)
let test_memory_chain_serial () =
  let a =
    analyze
      {|
fn main() -> int {
  var a: int[] = new int[512];
  a[0] = 1;
  for (var i: int = 1; i < 512; i = i + 1) {
    a[i] = (a[i - 1] * 17 + 3) & 4095;
  }
  print_int(a[511]);
  return 0;
}
|}
  in
  let sd = speedup a (cfg "reduc0-dep0-fn0 DOALL") in
  Alcotest.(check bool) (Printf.sprintf "doall %.2f small" sd) true (sd < 1.5);
  let sp = speedup a (cfg "reduc0-dep0-fn0 PDOALL") in
  Alcotest.(check bool) (Printf.sprintf "pdoall %.2f small" sp) true (sp < 1.5)

let reduction_src =
  {|
fn main() -> int {
  var a: int[] = new int[256];
  for (var i: int = 0; i < 256; i = i + 1) { a[i] = (i * 31) & 255; }
  var s: int = 0;
  for (var i: int = 0; i < 256; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}

let test_reduc_flag () =
  let a = analyze reduction_src in
  let s0 = speedup a (cfg "reduc0-dep0-fn0 DOALL") in
  let s1 = speedup a (cfg "reduc1-dep0-fn0 DOALL") in
  Alcotest.(check bool)
    (Printf.sprintf "reduc1 (%.2f) much better than reduc0 (%.2f)" s1 s0)
    true
    (s1 > 2.0 *. s0)

let call_ladder_src =
  {|
fn pure_math(x: int) -> int { return (x * x + 1) & 1023; }
fn main() -> int {
  var a: int[] = new int[128];
  for (var i: int = 0; i < 128; i = i + 1) {
    a[i] = pure_math(i * 3);
  }
  print_int(a[127]);
  return 0;
}
|}

let test_fn_ladder_pure_user_call () =
  let a = analyze call_ladder_src in
  let f0 = speedup a (cfg "reduc0-dep0-fn0 PDOALL") in
  let f1 = speedup a (cfg "reduc0-dep0-fn1 PDOALL") in
  Alcotest.(check bool) (Printf.sprintf "fn0 serial (%.2f)" f0) true (f0 < 1.3);
  Alcotest.(check bool)
    (Printf.sprintf "fn1 parallelizes pure calls (%.2f)" f1)
    true (f1 > 2.0 *. f0)

let unsafe_call_src =
  {|
fn main() -> int {
  var t: int = 0;
  srand(7);
  for (var i: int = 0; i < 200; i = i + 1) {
    t = (t + rand()) & 65535;
  }
  print_int(t);
  return 0;
}
|}

let test_fn_ladder_unsafe_builtin () =
  let a = analyze unsafe_call_src in
  let f2 = speedup a (cfg "reduc1-dep3-fn2 PDOALL") in
  let f3 = speedup a (cfg "reduc1-dep3-fn3 PDOALL") in
  Alcotest.(check bool) (Printf.sprintf "fn2 keeps rand serial (%.2f)" f2) true (f2 < 1.3);
  Alcotest.(check bool) (Printf.sprintf "fn3 frees it (%.2f)" f3) true (f3 > 2.0)

(* A predictable non-computable register LCD: dep0 serial, dep2 unlocks. The
   value evolves by a stride only re-established per iteration through memory
   -> not computable, but trivially predictable. *)
let predictable_lcd_src =
  {|
fn main() -> int {
  var steps: int[] = new int[1];
  steps[0] = 3;
  var cur: int = 0;
  var sink: int[] = new int[256];
  for (var i: int = 0; i < 250; i = i + 1) {
    cur = cur + steps[0];          // stride 3 via memory: non-computable
    sink[i] = cur & 7;
  }
  print_int(cur);
  return 0;
}
|}

let test_dep_ladder_prediction () =
  let a = analyze predictable_lcd_src in
  let d0 = speedup a (cfg "reduc0-dep0-fn0 PDOALL") in
  let d2 = speedup a (cfg "reduc0-dep2-fn0 PDOALL") in
  let d3 = speedup a (cfg "reduc0-dep3-fn0 PDOALL") in
  Alcotest.(check bool) (Printf.sprintf "dep0 serial (%.2f)" d0) true (d0 < 1.3);
  Alcotest.(check bool) (Printf.sprintf "dep2 unlocks (%.2f)" d2) true (d2 > 2.0 *. d0);
  Alcotest.(check bool) (Printf.sprintf "dep3 at least dep2 (%.2f)" d3) true
    (d3 >= d2 -. 0.01)

(* An unpredictable register chain: dep2 fails, dep1+HELIX synchronizes. The
   producer lands early in the iteration (cheap work before, heavy after), so
   HELIX pipelining wins big. *)
let unpredictable_chain_src =
  {|
fn main() -> int {
  var h: int = 7;
  var sink: int[] = new int[300];
  for (var i: int = 0; i < 300; i = i + 1) {
    h = (h * 1103515245 + 12345) & 65535;   // produced right at iter start
    var w: int = 0;
    for (var j: int = 0; j < 20; j = j + 1) { w = w + ((h + j) & 15); }
    sink[i] = w;
  }
  print_int(sink[299]);
  return 0;
}
|}

let test_dep1_helix_pipelines () =
  let a = analyze unpredictable_chain_src in
  let d2 = speedup a (cfg "reduc0-dep2-fn0 PDOALL") in
  let d1 = speedup a (cfg "reduc1-dep1-fn0 HELIX") in
  Alcotest.(check bool) (Printf.sprintf "dep2 pdoall stuck (%.2f)" d2) true (d2 < 1.6);
  Alcotest.(check bool)
    (Printf.sprintf "helix dep1 pipelines (%.2f > 3)" d1)
    true (d1 > 3.0)

let test_coverage_monotonic_in_marking () =
  let a = analyze reduction_src in
  let c0 = (Loopa.Driver.evaluate a (cfg "reduc0-dep0-fn0 PDOALL")).Loopa.Evaluate.coverage_pct in
  let c1 = (Loopa.Driver.evaluate a (cfg "reduc1-dep0-fn0 PDOALL")).Loopa.Evaluate.coverage_pct in
  Alcotest.(check bool) (Printf.sprintf "coverage %.1f -> %.1f grows" c0 c1) true (c1 >= c0);
  Alcotest.(check bool) "bounded" true (c1 <= 100.0)

let test_speedups_at_least_one () =
  let a = analyze reduction_src in
  List.iter
    (fun c ->
      let s = speedup a c in
      Alcotest.(check bool)
        (Printf.sprintf "%s speedup %.2f >= 1" (Loopa.Config.name c) s)
        true (s >= 1.0))
    Loopa.Config.figure_ladder

let test_evaluate_rejects_invalid () =
  let a = analyze reduction_src in
  Alcotest.check_raises "doall+dep2"
    (Loopa.Config.Bad_config
       "DOALL does not support non-computable register LCDs (use dep0)") (fun () ->
      ignore (Loopa.Driver.evaluate a (cfg "reduc0-dep2-fn0 DOALL")))

(* ---- taxonomy census ---- *)

let test_taxonomy () =
  let a =
    analyze
      {|
fn main() -> int {
  var a: int[] = new int[128];
  for (var i: int = 0; i < 128; i = i + 1) { a[i] = (i * 37) & 127; }
  var s: int = 0;
  var p: int = 1;
  for (var i: int = 1; i < 127; i = i + 1) {  // IV computable
    s = s + i;                                 // reduction
    p = (p * 75 + a[i]) & 8191;                // chaotic: unpredictable
    a[i] = a[i - 1] + (p & 3);                 // frequent memory chain
  }
  print_int(s + p);
  return 0;
}
|}
  in
  let c = Loopa.Taxonomy.of_profile a.Loopa.Driver.profile in
  Alcotest.(check bool) "computable >= 1" true (c.Loopa.Taxonomy.reg_computable >= 1);
  Alcotest.(check bool) "reduction >= 1" true (c.Loopa.Taxonomy.reg_reduction >= 1);
  Alcotest.(check bool) "unpredictable >= 1" true
    (c.Loopa.Taxonomy.reg_unpredictable >= 1);
  Alcotest.(check int) "invocations" 2 c.Loopa.Taxonomy.total_invocations;
  Alcotest.(check int) "frequent mem loop" 1 c.Loopa.Taxonomy.mem_frequent_loops

(* per-loop report structure *)
let test_report_loops () =
  let a = analyze reduction_src in
  let r = Loopa.Driver.evaluate a (cfg "reduc1-dep0-fn0 PDOALL") in
  Alcotest.(check int) "two loops" 2 (List.length r.Loopa.Evaluate.loops);
  List.iter
    (fun (lr : Loopa.Evaluate.loop_result) ->
      Alcotest.(check bool) "final <= serial" true
        (lr.Loopa.Evaluate.final_cost <= lr.Loopa.Evaluate.serial_cost +. 1e-6);
      Alcotest.(check int) "one invocation" 1 lr.Loopa.Evaluate.invocations;
      Alcotest.(check string) "in main" "main" lr.Loopa.Evaluate.fname)
    r.Loopa.Evaluate.loops

let () =
  Alcotest.run "core"
    [
      ( "config",
        [
          Alcotest.test_case "parse/print" `Quick test_config_parse_print;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "ladder" `Quick test_config_ladder;
        ] );
      ( "classify",
        [
          Alcotest.test_case "phi classes" `Quick test_classify_classes;
          Alcotest.test_case "purity" `Quick test_purity;
        ] );
      ( "profile",
        [
          Alcotest.test_case "structure" `Quick test_profile_structure;
          Alcotest.test_case "digests match golden" `Slow test_profile_digests;
          Alcotest.test_case "evaluate digests match golden" `Slow test_evaluate_digests;
        ] );
      ( "raw",
        [
          Alcotest.test_case "outer write, later inner read" `Quick
            test_raw_outer_write_inner_read;
          Alcotest.test_case "write outside any loop" `Quick test_raw_write_outside_loops;
          Alcotest.test_case "write in a pruned inner loop" `Quick
            test_raw_pruned_inner_write;
          Alcotest.test_case "never-written word" `Quick test_raw_never_written;
          Alcotest.test_case "arrcopy/arrfill writes" `Quick test_raw_builtin_writes;
          Alcotest.test_case "wild store traps" `Quick test_raw_wild_store_traps;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "independent loop" `Quick test_independent_loop_parallel;
          Alcotest.test_case "memory chain serial" `Quick test_memory_chain_serial;
          Alcotest.test_case "reduc flag" `Quick test_reduc_flag;
          Alcotest.test_case "fn ladder: pure user" `Quick test_fn_ladder_pure_user_call;
          Alcotest.test_case "fn ladder: unsafe builtin" `Quick test_fn_ladder_unsafe_builtin;
          Alcotest.test_case "dep ladder: prediction" `Quick test_dep_ladder_prediction;
          Alcotest.test_case "dep1 helix pipelines" `Quick test_dep1_helix_pipelines;
          Alcotest.test_case "coverage monotonic" `Quick test_coverage_monotonic_in_marking;
          Alcotest.test_case "speedups >= 1" `Quick test_speedups_at_least_one;
          Alcotest.test_case "invalid config rejected" `Quick test_evaluate_rejects_invalid;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "taxonomy" `Quick test_taxonomy;
          Alcotest.test_case "per-loop report" `Quick test_report_loops;
        ] );
    ]
