(* Campaign-runner tests: the error taxonomy end to end via fault injection,
   checkpoint write / resume, retry-at-reduced-fuel, and the acceptance
   invariant that a fuel-truncated run yields a profile Evaluate scores
   without raising and Crosscheck still validates. *)

open Campaign

(* a small well-behaved program with a loop worth profiling *)
let good_src =
  {|
fn main() -> int {
  var a: int[] = new int[64];
  for (var i: int = 0; i < 64; i = i + 1) { a[i] = i * 3; }
  var s: int = 0;
  for (var i: int = 0; i < 64; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}

(* unbounded loop: only a budget can stop it *)
let endless_src =
  "fn main() -> int { var x: int = 0; while (true) { x = x + 1; } return x; }"

let quiet _ = ()

let budgets ?(fuel = 1_000_000) ?(retries = 1) () =
  { Runner.default_budgets with Runner.fuel; retries }

let run_one ?budgets:(b = Runner.default_budgets) ?faults_of name src =
  let s = Runner.run ~budgets:b ?faults_of ~log:quiet [ (name, src) ] in
  match s.Runner.results with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

(* ---- error taxonomy ---- *)

let test_completed () =
  let r = run_one ~budgets:(budgets ()) "good" good_src in
  match r.Runner.status with
  | Runner.Completed scores ->
      Alcotest.(check bool) "has scores" true (scores <> []);
      Alcotest.(check bool) "ran instructions" true (r.Runner.clock > 0);
      List.iter
        (fun (s : Runner.score) ->
          Alcotest.(check bool) "speedup >= 1" true (s.Runner.speedup >= 1.0 -. 1e-9))
        scores
  | st -> Alcotest.failf "expected completed, got %s" (Runner.status_to_string st)

let test_compile_error () =
  let r = run_one "broken" "} fn main(" in
  match r.Runner.status with
  | Runner.Errored (Runner.Compile_error _) -> ()
  | st -> Alcotest.failf "expected compile error, got %s" (Runner.status_to_string st)

let test_trap_class () =
  let faults_of _ = [ (50, Interp.Machine.Inject_div_by_zero) ] in
  let r = run_one ~budgets:(budgets ()) ~faults_of "trapped" good_src in
  match r.Runner.status with
  | Runner.Errored (Runner.Trap (Interp.Rvalue.Div_by_zero, _)) -> ()
  | st -> Alcotest.failf "expected div0 trap, got %s" (Runner.status_to_string st)

let test_oob_trap_class () =
  let faults_of _ = [ (50, Interp.Machine.Inject_oob) ] in
  let r = run_one ~budgets:(budgets ()) ~faults_of "oob" good_src in
  match r.Runner.status with
  | Runner.Errored (Runner.Trap (Interp.Rvalue.Out_of_bounds, _)) -> ()
  | st -> Alcotest.failf "expected oob trap, got %s" (Runner.status_to_string st)

let test_budget_truncation_and_retry () =
  (* endless loop under a small fuel budget: first attempt truncates, the
     retry at fuel/4 truncates too; the longer prefix is kept *)
  let r = run_one ~budgets:(budgets ~fuel:10_000 ()) "endless" endless_src in
  (match r.Runner.status with
  | Runner.Truncated (Interp.Rvalue.Fuel, _) -> ()
  | st -> Alcotest.failf "expected fuel truncation, got %s" (Runner.status_to_string st));
  Alcotest.(check int) "retried once" 2 r.Runner.attempts;
  Alcotest.(check bool) "kept the longer prefix" true (r.Runner.clock >= 10_000)

let test_no_retry_when_disabled () =
  let r = run_one ~budgets:(budgets ~fuel:10_000 ~retries:0 ()) "endless" endless_src in
  Alcotest.(check int) "single attempt" 1 r.Runner.attempts

let test_budget_exhausted_degenerate () =
  (* fuel-out injected at clock 0: no prefix at all -> the degenerate
     Budget_exhausted error, not a truncated result *)
  let faults_of _ = [ (0, Interp.Machine.Inject_fuel_out) ] in
  let r = run_one ~budgets:(budgets ~retries:0 ()) ~faults_of "empty" good_src in
  match r.Runner.status with
  | Runner.Errored (Runner.Budget_exhausted Interp.Rvalue.Fuel) -> ()
  | st -> Alcotest.failf "expected budget-exhausted, got %s" (Runner.status_to_string st)

let test_campaign_isolates_failures () =
  (* one task of every class in a single campaign; later tasks still run *)
  let faults_of = function
    | "trapped" -> [ (50, Interp.Machine.Inject_div_by_zero) ]
    | _ -> []
  in
  let s =
    Runner.run ~budgets:(budgets ~fuel:10_000 ()) ~faults_of ~log:quiet
      [
        ("broken", "} fn main(");
        ("trapped", good_src);
        ("endless", endless_src);
        ("good", good_src);
      ]
  in
  Alcotest.(check int) "all results present" 4 (List.length s.Runner.results);
  Alcotest.(check int) "completed" 1 s.Runner.n_completed;
  Alcotest.(check int) "truncated" 1 s.Runner.n_truncated;
  Alcotest.(check int) "errored" 2 s.Runner.n_errored;
  Alcotest.(check bool) "failure breakdown has compile-error" true
    (List.mem_assoc "compile-error" s.Runner.failures);
  Alcotest.(check bool) "failure breakdown has div0" true
    (List.mem_assoc "trap:div-by-zero" s.Runner.failures);
  Alcotest.(check bool) "geomeans over scored tasks" true (s.Runner.geomeans <> [])

(* ---- checkpoint / resume ---- *)

let with_tmp f =
  let path = Filename.temp_file "campaign" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_checkpoint_roundtrip () =
  List.iter
    (fun r ->
      match Runner.result_of_json (Runner.result_to_json r) with
      | Ok r' ->
          Alcotest.(check string) "target" r.Runner.target r'.Runner.target;
          Alcotest.(check string) "status"
            (Runner.status_to_string r.Runner.status)
            (Runner.status_to_string r'.Runner.status);
          Alcotest.(check int) "attempts" r.Runner.attempts r'.Runner.attempts;
          Alcotest.(check int) "clock" r.Runner.clock r'.Runner.clock
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      {
        Runner.target = "a";
        status =
          Runner.Completed
            [
              {
                Runner.config = Loopa.Config.best_helix;
                speedup = 2.5;
                coverage_pct = 80.0;
              };
            ];
        attempts = 1;
        clock = 123;
        wall_s = 0.5;
      };
      {
        Runner.target = "b";
        status = Runner.Truncated (Interp.Rvalue.Fuel, []);
        attempts = 2;
        clock = 10_000;
        wall_s = 1.0;
      };
      {
        Runner.target = "c";
        status = Runner.Errored (Runner.Trap (Interp.Rvalue.Out_of_bounds, "boom"));
        attempts = 1;
        clock = 0;
        wall_s = 0.0;
      };
      {
        Runner.target = "d";
        status = Runner.Errored (Runner.Budget_exhausted Interp.Rvalue.Wall);
        attempts = 1;
        clock = 0;
        wall_s = 2.0;
      };
    ]

let test_resume_skips_checkpointed () =
  with_tmp (fun ck ->
      let s1 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~log:quiet
          [ ("good", good_src); ("broken", "} fn main(") ]
      in
      Alcotest.(check int) "first pass runs both" 0 s1.Runner.n_resumed;
      (* resumed pass: both restored, plus one genuinely new task. If the
         runner re-ran "broken", the count below would shift. *)
      let s2 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~resume:true ~log:quiet
          [ ("good", good_src); ("broken", "} fn main("); ("endless", endless_src) ]
      in
      Alcotest.(check int) "two resumed" 2 s2.Runner.n_resumed;
      Alcotest.(check int) "all three reported" 3 (List.length s2.Runner.results);
      (* the checkpoint now holds all three: a further resume runs nothing *)
      let s3 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~resume:true ~log:quiet
          [ ("good", good_src); ("broken", "} fn main("); ("endless", endless_src) ]
      in
      Alcotest.(check int) "all resumed" 3 s3.Runner.n_resumed)

let test_resume_tolerates_garbage () =
  with_tmp (fun ck ->
      let oc = open_out ck in
      output_string oc "not json at all\n{\"target\":\"half\"\n";
      close_out oc;
      let s =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~resume:true ~log:quiet
          [ ("good", good_src) ]
      in
      Alcotest.(check int) "garbage ignored, task ran" 0 s.Runner.n_resumed;
      Alcotest.(check int) "completed" 1 s.Runner.n_completed)

(* ---- parallel executor ---- *)

(* A checkpoint file as comparable lines, with the per-process timing
   fields dropped: wall_s is measured in whichever process ran the task
   and telemetry carries clock readings — everything else must be
   byte-identical between serial and forked runs. *)
let normalized_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Util.Json.of_string l with
         | Ok (Util.Json.Obj fields) ->
             Util.Json.to_string
               (Util.Json.Obj
                  (List.filter
                     (fun (k, _) -> k <> "wall_s" && k <> "telemetry")
                     fields))
         | Ok j -> Util.Json.to_string j
         | Error e -> Alcotest.failf "unparseable checkpoint line %S: %s" l e)

let mixed_targets =
  [
    ("good", good_src);
    ("broken", "} fn main(");
    ("endless", endless_src);
    ("good2", good_src);
    ("trapped", good_src);
  ]

let mixed_faults = function
  | "trapped" -> [ (50, Interp.Machine.Inject_div_by_zero) ]
  | _ -> []

let test_forked_checkpoint_matches_serial () =
  with_tmp (fun ck_serial ->
      with_tmp (fun ck_forked ->
          let b = budgets ~fuel:10_000 () in
          let s1 =
            Runner.run ~budgets:b ~faults_of:mixed_faults ~checkpoint:ck_serial
              ~log:quiet mixed_targets
          in
          let s4 =
            Runner.run ~budgets:b ~faults_of:mixed_faults ~checkpoint:ck_forked
              ~log:quiet ~executor:(Runner.Forked 4) mixed_targets
          in
          Alcotest.(check (list string))
            "checkpoints identical modulo timing"
            (normalized_lines ck_serial) (normalized_lines ck_forked);
          Alcotest.(check int) "completed" s1.Runner.n_completed s4.Runner.n_completed;
          Alcotest.(check int) "truncated" s1.Runner.n_truncated s4.Runner.n_truncated;
          Alcotest.(check int) "errored" s1.Runner.n_errored s4.Runner.n_errored;
          List.iter2
            (fun (a : Runner.result) (b : Runner.result) ->
              Alcotest.(check string) "target order" a.Runner.target b.Runner.target;
              Alcotest.(check string) "status"
                (Runner.status_to_string a.Runner.status)
                (Runner.status_to_string b.Runner.status))
            s1.Runner.results s4.Runner.results))

let test_worker_lost_then_resume () =
  (* the hook runs in the worker process: killing there must cost exactly
     that task, be recorded as Worker_lost, and leave a checkpoint a later
     serial --resume completes without re-running the poison task *)
  let kill_target target =
    if target = "kill" then Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let targets =
    [ ("a", good_src); ("kill", good_src); ("b", good_src); ("c", good_src) ]
  in
  with_tmp (fun ck ->
      let s =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~log:quiet
          ~executor:(Runner.Forked 2) ~on_task_start:kill_target targets
      in
      Alcotest.(check int) "three completed" 3 s.Runner.n_completed;
      Alcotest.(check int) "one errored" 1 s.Runner.n_errored;
      (match
         List.find (fun r -> r.Runner.target = "kill") s.Runner.results
       with
      | { Runner.status = Runner.Errored (Runner.Worker_lost cause); _ } ->
          Alcotest.(check bool) "cause names the signal" true
            (Astring_contains.contains cause "SIGKILL")
      | r ->
          Alcotest.failf "expected worker-lost, got %s"
            (Runner.status_to_string r.Runner.status));
      Alcotest.(check bool) "breakdown has worker-lost" true
        (List.mem_assoc "worker-lost" s.Runner.failures);
      (* serial resume with the same murderous hook: every target including
         the poison one is restored, so the hook never fires again *)
      let s2 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~resume:true
          ~log:quiet ~on_task_start:kill_target targets
      in
      Alcotest.(check int) "all resumed" 4 s2.Runner.n_resumed)

let test_worker_lost_codec () =
  let r =
    {
      Runner.target = "x";
      status = Runner.Errored (Runner.Worker_lost "worker killed by SIGKILL");
      attempts = 1;
      clock = 0;
      wall_s = 0.0;
    }
  in
  match Runner.result_of_json (Runner.result_to_json r) with
  | Ok { Runner.status = Runner.Errored (Runner.Worker_lost m); _ } ->
      Alcotest.(check string) "message survives" "worker killed by SIGKILL" m
  | Ok r' ->
      Alcotest.failf "wrong status: %s" (Runner.status_to_string r'.Runner.status)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_interrupt_flushes_and_resumes () =
  (* a SIGINT mid-campaign: the runner finishes nothing new, flushes the
     decided prefix as whole JSONL lines and raises Interrupted; a resumed
     run completes the remainder *)
  let signal_at target =
    if target = "second" then Unix.kill (Unix.getpid ()) Sys.sigint
  in
  let targets =
    [ ("first", good_src); ("second", good_src); ("third", good_src) ]
  in
  with_tmp (fun ck ->
      (match
         Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~log:quiet
           ~on_task_start:signal_at targets
       with
      | _ -> Alcotest.fail "expected Interrupted"
      | exception Runner.Interrupted -> ());
      (* every flushed line parses (atomic line writes), and the prefix
         decided before the signal is all there *)
      let lines = normalized_lines ck in
      Alcotest.(check int) "first and second checkpointed" 2 (List.length lines);
      let s =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~resume:true ~log:quiet
          targets
      in
      Alcotest.(check int) "two resumed" 2 s.Runner.n_resumed;
      Alcotest.(check int) "all completed" 3 s.Runner.n_completed)

(* A serial checkpoint line reaches the disk as soon as its task is
   decided, not at the end of the run: each task start sees the lines of
   every task before it. *)
let test_serial_lines_written_as_decided () =
  with_tmp (fun ck ->
      let seen = ref [] in
      let count_lines _ =
        seen := List.length (normalized_lines ck) :: !seen
      in
      ignore
        (Runner.run ~budgets:(budgets ()) ~checkpoint:ck ~log:quiet
           ~on_task_start:count_lines
           [ ("a", good_src); ("b", good_src); ("c", good_src) ]);
      Alcotest.(check (list int)) "lines on disk at each task start" [ 0; 1; 2 ]
        (List.rev !seen))

(* ---- acceptance: truncated profiles stay scorable and sound ---- *)

let test_truncated_profile_scorable () =
  let a =
    Loopa.Driver.analyze_source ~fuel:500 ~static_prune:false good_src
  in
  Alcotest.(check bool) "profile truncated" true
    a.Loopa.Driver.profile.Loopa.Profile.truncated;
  (* Evaluate must not raise on the prefix, and Crosscheck must still pass *)
  List.iter
    (fun cfg ->
      let r = Loopa.Driver.evaluate a cfg in
      Alcotest.(check bool) "flagged" true r.Loopa.Evaluate.truncated;
      Alcotest.(check bool) "speedup sane" true (r.Loopa.Evaluate.speedup >= 1.0 -. 1e-9))
    Loopa.Config.figure_ladder;
  Alcotest.(check bool) "crosscheck passes on prefix" true
    (Loopa.Crosscheck.check a.Loopa.Driver.profile = [])

let () =
  Alcotest.run "campaign"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "completed" `Quick test_completed;
          Alcotest.test_case "compile error" `Quick test_compile_error;
          Alcotest.test_case "div0 trap" `Quick test_trap_class;
          Alcotest.test_case "oob trap" `Quick test_oob_trap_class;
          Alcotest.test_case "budget truncation + retry" `Quick
            test_budget_truncation_and_retry;
          Alcotest.test_case "retries disabled" `Quick test_no_retry_when_disabled;
          Alcotest.test_case "degenerate budget exhaustion" `Quick
            test_budget_exhausted_degenerate;
          Alcotest.test_case "isolation across classes" `Quick
            test_campaign_isolates_failures;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "resume skips" `Quick test_resume_skips_checkpointed;
          Alcotest.test_case "garbage tolerated" `Quick test_resume_tolerates_garbage;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "forked checkpoint matches serial" `Quick
            test_forked_checkpoint_matches_serial;
          Alcotest.test_case "worker lost, respawn, resume" `Quick
            test_worker_lost_then_resume;
          Alcotest.test_case "worker-lost codec" `Quick test_worker_lost_codec;
          Alcotest.test_case "interrupt flushes and resumes" `Quick
            test_interrupt_flushes_and_resumes;
          Alcotest.test_case "serial lines written as decided" `Quick
            test_serial_lines_written_as_decided;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "truncated profile scorable" `Quick
            test_truncated_profile_scorable;
        ] );
    ]
