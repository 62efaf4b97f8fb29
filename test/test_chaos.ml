(* Supervision at the campaign level, with faults injected in the task
   itself through [on_task_start], which runs in the process that executes
   the task: watchdog timeouts recorded and resumable, a task that kills
   its process kept out of the parent, byte-identical checkpoints across
   runs with the same faults, resume completing a faulted checkpoint, a
   full disk reported as a system error, salvage of torn checkpoint tails,
   and worker telemetry that survives the worker.
   The pool-level mechanics live in test_exec.ml. *)

open Campaign
module J = Util.Json

let contains = Astring_contains.contains
let quiet _ = ()

(* small and well-behaved, with a loop worth profiling *)
let good_src =
  {|
fn main() -> int {
  var a: int[] = new int[32];
  for (var i: int = 0; i < 32; i = i + 1) { a[i] = i * 3; }
  var s: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}

let named n = List.init n (fun i -> (Printf.sprintf "t%02d" i, good_src))

let budgets ?watchdog () =
  { Runner.default_budgets with Runner.fuel = 1_000_000; watchdog_s = watchdog }

let with_tmp f =
  let path = Filename.temp_file "chaos-test-" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let checkpoint_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* wall_s and telemetry are the only legitimately nondeterministic fields *)
let normalize line =
  match J.of_string line with
  | Ok (J.Obj fields) ->
      J.to_string
        (J.Obj
           (List.filter (fun (k, _) -> k <> "wall_s" && k <> "telemetry") fields))
  | _ -> line

(* An [on_task_start] hook that runs the action [faults] pairs with a
   target, when that target runs outside the test's process: in a forked
   worker. *)
let in_worker faults =
  let me = Unix.getpid () in
  fun target ->
    if Unix.getpid () <> me then
      Option.iter (fun act -> act ()) (List.assoc_opt target faults)

let sigkill () = Unix.kill (Unix.getpid ()) Sys.sigkill
let sigstop () = Unix.kill (Unix.getpid ()) Sys.sigstop
let exit_1 () = Unix._exit 1

let status_of (s : Runner.summary) name =
  match
    List.find_opt (fun (r : Runner.result) -> r.Runner.target = name) s.Runner.results
  with
  | Some r -> r.Runner.status
  | None -> Alcotest.failf "no result for %s" name

(* ---- watchdog: a SIGSTOP-stalled worker is reaped within the deadline ---- *)

let test_watchdog_reaps_stall_as_task_timeout () =
  let t0 = Unix.gettimeofday () in
  let s =
    Runner.run
      ~budgets:(budgets ~watchdog:1.0 ())
      ~log:quiet ~executor:(Runner.Forked 2)
      ~on_task_start:(in_worker [ ("t01", sigstop) ])
      (named 4)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match status_of s "t01" with
  | Runner.Errored (Runner.Task_timeout m) ->
      Alcotest.(check bool) "message names the watchdog" true
        (contains m "watchdog")
  | st ->
      Alcotest.failf "stalled task should be a task-timeout, got %s"
        (Runner.status_to_string st));
  List.iter
    (fun t ->
      match status_of s t with
      | Runner.Completed _ -> ()
      | st ->
          Alcotest.failf "%s should have completed, got %s" t
            (Runner.status_to_string st))
    [ "t00"; "t02"; "t03" ];
  Alcotest.(check bool)
    (Printf.sprintf "reaped within the deadline's order (%.2fs)" elapsed)
    true (elapsed < 10.0);
  Alcotest.(check (list (pair string int)))
    "failure breakdown" [ ("task-timeout", 1) ] s.Runner.failures

let test_task_timeout_codec_roundtrip () =
  let r =
    {
      Runner.target = "t";
      status = Runner.Errored (Runner.Task_timeout "exceeded 1s per-task watchdog deadline");
      attempts = 1;
      clock = 0;
      wall_s = 0.0;
    }
  in
  match Runner.result_of_json (Runner.result_to_json r) with
  | Ok r' -> (
      match r'.Runner.status with
      | Runner.Errored (Runner.Task_timeout m) ->
          Alcotest.(check bool) "message survives" true (contains m "watchdog")
      | st ->
          Alcotest.failf "class lost in the codec: %s" (Runner.status_to_string st))
  | Error e -> Alcotest.failf "decode failed: %s" e

(* ---- executors: what runs where, and what it leaves behind ---- *)

(* Every task kills the process that runs it, as a kernel OOM kill would.
   Under the pool each one must cost its worker and nothing more: none may
   run in the parent, the one process that must not die. *)
let test_killer_task_never_runs_in_parent () =
  let n = 10 in
  let me = Unix.getpid () in
  let ran_here = ref [] in
  let on_task_start target =
    if Unix.getpid () = me then ran_here := target :: !ran_here
    else Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let s =
    Runner.run ~budgets:(budgets ()) ~log:quiet ~executor:(Runner.Forked 2)
      ~on_task_start (named n)
  in
  Alcotest.(check (list string)) "no task ran in the parent" []
    (List.rev !ran_here);
  Alcotest.(check int) "every task classified" n (List.length s.Runner.results);
  List.iter
    (fun (r : Runner.result) ->
      match r.Runner.status with
      | Runner.Errored (Runner.Worker_lost cause) ->
          Alcotest.(check string) "reaped cause" "worker killed by SIGKILL" cause
      | st ->
          Alcotest.failf "%s: expected worker-lost, got %s" r.Runner.target
            (Runner.status_to_string st))
    s.Runner.results

(* --profile-dir rides the one task body, so both executors leave one
   flamegraph per completed task, and none for the task whose worker the
   forked run kills. *)
let test_completed_tasks_are_profiled () =
  let n = 4 in
  List.iter
    (fun (label, executor, killed) ->
      let dir = Filename.temp_file "chaos-prof-" "" in
      Sys.remove dir;
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Sys.rmdir dir
          end)
        (fun () ->
          let s =
            Runner.run ~budgets:(budgets ()) ~log:quiet ~prof_dir:dir
              ~executor
              ~on_task_start:(in_worker [ ("t01", sigkill) ])
              (named n)
          in
          let completed =
            List.filter_map
              (fun (r : Runner.result) ->
                match r.Runner.status with
                | Runner.Completed _ -> Some (r.Runner.target ^ ".folded")
                | _ -> None)
              s.Runner.results
          in
          let folded =
            Array.to_list (Sys.readdir dir)
            |> List.filter (fun f ->
                   Filename.check_suffix f ".folded"
                   && not (Filename.check_suffix f ".samples.folded"))
            |> List.sort compare
          in
          Alcotest.(check int) (label ^ ": completed tasks")
            (n - killed) (List.length completed);
          Alcotest.(check (list string))
            (label ^ ": one .folded per completed task")
            completed folded))
    [ ("serial", Runner.Serial, 0); ("forked", Runner.Forked 2, 1) ]

(* ---- the same faults, the same bytes ---- *)

(* Six tasks under the pool with a 1 s watchdog; t01's worker is killed,
   t02's exits 1 (what a torn or corrupt result frame also costs), and
   t04's stalls until the watchdog reaps it. *)
let faulted_run ckpt =
  ignore
    (Runner.run
       ~budgets:(budgets ~watchdog:1.0 ())
       ~checkpoint:ckpt ~log:quiet ~executor:(Runner.Forked 2)
       ~on_task_start:
         (in_worker [ ("t01", sigkill); ("t02", exit_1); ("t04", sigstop) ])
       (named 6))

let test_same_faults_same_checkpoint () =
  with_tmp (fun a ->
      with_tmp (fun b ->
          faulted_run a;
          faulted_run b;
          let la = List.map normalize (checkpoint_lines a) in
          let lb = List.map normalize (checkpoint_lines b) in
          Alcotest.(check int) "one line per task" 6 (List.length la);
          Alcotest.(check (list string)) "normalized checkpoints identical" la
            lb;
          List.iter
            (fun (k, needle) ->
              let line = List.nth la k in
              Alcotest.(check bool)
                (Printf.sprintf "%S records %S" line needle)
                true (contains line needle))
            [
              (1, "worker killed by SIGKILL");
              (2, "worker exited with code 1");
              (4, "exceeded 1s per-task watchdog deadline");
            ]))

(* ---- resume completes a faulted checkpoint ---- *)

(* Cut to its first three lines, the faulted checkpoint resumes with no
   fault: the recorded loss is skipped, not re-run, and the other three
   tasks run. *)
let test_resume_completes_faulted_checkpoint () =
  with_tmp (fun ckpt ->
      faulted_run ckpt;
      let head = List.filteri (fun i _ -> i < 3) (checkpoint_lines ckpt) in
      Out_channel.with_open_bin ckpt (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) head);
      let ran = ref [] in
      let s =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~resume:true
          ~log:quiet
          ~on_task_start:(fun t -> ran := t :: !ran)
          (named 6)
      in
      Alcotest.(check int) "three lines restored" 3 s.Runner.n_resumed;
      (match status_of s "t01" with
      | Runner.Errored (Runner.Worker_lost _) -> ()
      | st ->
          Alcotest.failf "recorded loss should be skipped, got %s"
            (Runner.status_to_string st));
      Alcotest.(check (list string)) "the other tasks ran"
        [ "t03"; "t04"; "t05" ] (List.rev !ran);
      Alcotest.(check int) "checkpoint now complete" 6
        (List.length (checkpoint_lines ckpt)))

(* ---- a full disk is a system error ---- *)

(* Every write to /dev/full fails with ENOSPC: the checkpoint's Sys_error
   ends the run, and no worker outlives it. *)
let test_full_disk_raises_sys_error () =
  if Sys.file_exists "/dev/full" then begin
    (match
       Runner.run ~budgets:(budgets ()) ~checkpoint:"/dev/full" ~log:quiet
         ~executor:(Runner.Forked 2) (named 3)
     with
    | _ -> Alcotest.fail "a checkpoint on /dev/full should raise"
    | exception Sys_error m ->
        Alcotest.(check bool) "names ENOSPC" true
          (contains m "No space left on device"));
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | pid, _ -> Alcotest.failf "child %d outlived the run" pid
  end

(* ---- torn checkpoint tails are salvaged and truncated ---- *)

let test_torn_tail_salvage_on_resume () =
  let n = 3 in
  with_tmp (fun ckpt ->
      ignore
        (Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~log:quiet (named 2));
      (* simulate a hard kill mid-write: a final fragment with no newline *)
      let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 ckpt in
      output_string oc "{\"target\":\"t9";
      close_out oc;
      let logs = ref [] in
      let s =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~resume:true
          ~log:(fun m -> logs := m :: !logs)
          (named n)
      in
      Alcotest.(check bool) "salvage is reported" true
        (List.exists (fun m -> contains m "torn tail dropped") !logs);
      Alcotest.(check int) "whole lines restored" 2 s.Runner.n_resumed;
      Alcotest.(check int) "everything classified" n
        (List.length s.Runner.results);
      (* the torn fragment must not have corrupted the appended line *)
      let lines = checkpoint_lines ckpt in
      Alcotest.(check int) "checkpoint complete and parseable" n
        (List.length lines);
      List.iter
        (fun l ->
          match J.of_string l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "unparseable checkpoint line (%s): %s" e l)
        lines)

(* Only newline-terminated lines count: a final line that parses but lost
   its newline is still a torn tail, dropped and cut, so its task re-runs
   and the file ends holding every target once. *)
let test_unterminated_final_line_dropped () =
  let n = 3 in
  with_tmp (fun ckpt ->
      ignore
        (Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~log:quiet
           (named 2));
      let raw = In_channel.with_open_bin ckpt In_channel.input_all in
      Out_channel.with_open_bin ckpt (fun oc ->
          output_string oc (String.sub raw 0 (String.length raw - 1)));
      let logs = ref [] in
      let s =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~resume:true
          ~log:(fun m -> logs := m :: !logs)
          (named n)
      in
      Alcotest.(check bool) "salvage is reported" true
        (List.exists (fun m -> contains m "torn tail dropped") !logs);
      Alcotest.(check int) "only the terminated line restored" 1
        s.Runner.n_resumed;
      let targets =
        List.map
          (fun l ->
            match
              Option.bind (Result.to_option (J.of_string l)) (J.member "target")
            with
            | Some (J.String t) -> t
            | _ -> Alcotest.failf "unparseable checkpoint line: %s" l)
          (checkpoint_lines ckpt)
      in
      Alcotest.(check (list string)) "every target exactly once"
        [ "t00"; "t01"; "t02" ]
        (List.sort compare targets))

(* ---- telemetry: a worker's death loses none of its delivered tasks ---- *)

(* Every scored task observes [evaluate.speedup] once per ladder rung, and
   the histograms of a task a worker finished must reach the parent even
   when that worker dies later — here, killed by the last task. *)
let test_worker_histograms_survive_worker_loss () =
  let n = 6 in
  let rungs = List.length Loopa.Config.figure_ladder in
  let observe executor =
    Obs.Telemetry.reset ();
    let s =
      Runner.run ~budgets:(budgets ()) ~log:quiet ~executor
        ~on_task_start:(in_worker [ ("t05", sigkill) ])
        (named n)
    in
    let scored =
      List.length
        (List.filter
           (fun (r : Runner.result) ->
             match r.Runner.status with
             | Runner.Completed _ | Runner.Truncated _ -> true
             | Runner.Errored _ -> false)
           s.Runner.results)
    in
    let count =
      match List.assoc_opt "evaluate.speedup" (Obs.Telemetry.histograms ()) with
      | Some h -> h.Obs.Telemetry.count
      | None -> 0
    in
    (scored, count)
  in
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.reset ();
      Obs.Telemetry.disable ())
    (fun () ->
      let serial_scored, serial = observe Runner.Serial in
      Alcotest.(check int) "serial: every task scored" n serial_scored;
      Alcotest.(check int) "serial: one observation per rung per scored task"
        (rungs * serial_scored) serial;
      let scored, count = observe (Runner.Forked 2) in
      Alcotest.(check int) "forked: the last task is lost" (n - 1) scored;
      Alcotest.(check int) "forked: one observation per rung per scored task"
        (rungs * scored) count)

let () =
  Alcotest.run "chaos"
    [
      ( "watchdog",
        [
          Alcotest.test_case "SIGSTOP stall becomes task-timeout" `Quick
            test_watchdog_reaps_stall_as_task_timeout;
          Alcotest.test_case "task-timeout codec roundtrip" `Quick
            test_task_timeout_codec_roundtrip;
        ] );
      ( "executors",
        [
          Alcotest.test_case
            "a task that kills its process never runs in the parent" `Quick
            test_killer_task_never_runs_in_parent;
          Alcotest.test_case "completed tasks are profiled" `Quick
            test_completed_tasks_are_profiled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case
            "two Forked runs with the same in-task faults write the same \
             checkpoint"
            `Quick test_same_faults_same_checkpoint;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume completes a faulted checkpoint" `Quick
            test_resume_completes_faulted_checkpoint;
          Alcotest.test_case "a full disk raises Sys_error" `Quick
            test_full_disk_raises_sys_error;
          Alcotest.test_case "torn tail salvaged and truncated" `Quick
            test_torn_tail_salvage_on_resume;
          Alcotest.test_case "unterminated final line is a torn tail" `Quick
            test_unterminated_final_line_dropped;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "worker histograms survive worker loss" `Quick
            test_worker_histograms_survive_worker_loss;
        ] );
    ]
