(* Chaos-hardened supervision at the campaign level: deterministic fault
   schedules driven through the full runner — watchdog timeouts recorded
   and resumable, a task that kills its process kept out of the parent,
   the same checkpoint and profiles from Serial and Forked runs, injected
   checkpoint-write failures healed by resume, byte-identical outcomes
   across same-seed runs, salvage of torn checkpoint tails, and worker
   telemetry that survives the worker.
   The pool-level mechanics live in test_exec.ml; this file asserts the
   end-to-end invariants the `chaos` subcommand enforces. *)

open Campaign
module Chaos = Exec.Chaos
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
      ~chaos:(Chaos.explicit [ (1, Chaos.Stall_self) ])
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

(* Under Serial the runner simulates each planned lethal fault; the error
   it records must be the one the pool's reaper and watchdog deliver under
   Forked, cause string included, or the two checkpoints part ways. *)
let test_serial_and_forked_checkpoints_agree () =
  let n = 6 in
  let plan =
    Chaos.explicit
      [
        (1, Chaos.Kill_self);
        (2, Chaos.Torn_result);
        (3, Chaos.Corrupt_result);
        (4, Chaos.Stall_self);
      ]
  in
  let pass executor ckpt =
    ignore
      (Runner.run
         ~budgets:(budgets ~watchdog:1.0 ())
         ~checkpoint:ckpt ~log:quiet ~executor ~chaos:plan (named n))
  in
  with_tmp (fun a ->
      with_tmp (fun b ->
          pass Runner.Serial a;
          pass (Runner.Forked 2) b;
          let la = List.map normalize (checkpoint_lines a) in
          let lb = List.map normalize (checkpoint_lines b) in
          Alcotest.(check int) "one line per task" n (List.length la);
          Alcotest.(check (list string)) "normalized checkpoints identical" la
            lb;
          List.iter
            (fun (line, needle) ->
              Alcotest.(check bool)
                (Printf.sprintf "%S records %S" line needle)
                true (contains line needle))
            [
              (List.nth la 1, "worker killed by SIGKILL");
              (List.nth la 2, "worker exited with code 1");
              (List.nth la 3, "worker exited with code 1");
              (List.nth la 4, "exceeded 1s per-task watchdog deadline");
            ]))

(* --profile-dir rides the one task body, so both executors leave one
   flamegraph per completed task and none for a task chaos killed. *)
let test_completed_tasks_are_profiled () =
  let n = 4 in
  let plan = Chaos.explicit [ (1, Chaos.Kill_self) ] in
  List.iter
    (fun (label, executor) ->
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
              ~executor ~chaos:plan (named n)
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
          Alcotest.(check int) (label ^ ": the killed task did not complete")
            (n - 1) (List.length completed);
          Alcotest.(check (list string))
            (label ^ ": one .folded per completed task")
            completed folded))
    [ ("serial", Runner.Serial); ("forked", Runner.Forked 2) ]

(* ---- same seed, same bytes ---- *)

let test_same_seed_byte_identical_checkpoints () =
  let n = 6 in
  (* pick the first seed whose schedule actually injects a lethal fault
     (and no stall: keep the test fast) — the probe is itself deterministic *)
  let seed =
    let rec find s =
      if s > 500 then Alcotest.fail "no suitable seed in range"
      else
        let c name = List.assoc name (Chaos.planned_counts (Chaos.seeded s) ~n) in
        if c "kill" + c "torn" + c "corrupt" >= 1 && c "stall" = 0 then s
        else find (s + 1)
    in
    find 0
  in
  let pass ckpt =
    ignore
      (Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~log:quiet
         ~executor:(Runner.Forked 2) ~chaos:(Chaos.seeded seed) (named n))
  in
  with_tmp (fun a ->
      with_tmp (fun b ->
          pass a;
          pass b;
          let la = List.map normalize (checkpoint_lines a) in
          let lb = List.map normalize (checkpoint_lines b) in
          Alcotest.(check (list string)) "normalized checkpoints identical" la lb))

(* ---- injected checkpoint-write failures heal on resume ---- *)

let test_ckpt_fault_drops_line_and_resume_heals_it () =
  let n = 3 in
  with_tmp (fun ckpt ->
      (* write #0 (t00's line) fails with EIO; t01's worker is killed *)
      let plan =
        Chaos.explicit
          ~ckpt_faults:[ (0, Chaos.Eio) ]
          [ (1, Chaos.Kill_self) ]
      in
      let logs = ref [] in
      let s1 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt
          ~log:(fun m -> logs := m :: !logs)
          ~executor:(Runner.Forked 2) ~chaos:plan (named n)
      in
      Alcotest.(check int) "all classified despite the drop" n
        (List.length s1.Runner.results);
      Alcotest.(check int) "one line dropped" (n - 1)
        (List.length (checkpoint_lines ckpt));
      Alcotest.(check bool) "the drop is logged" true
        (List.exists (fun m -> contains m "EIO") !logs);
      (* resume without chaos: only the dropped task re-runs, the recorded
         loss is skipped, and the file ends complete *)
      let s2 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~resume:true
          ~log:quiet (named n)
      in
      Alcotest.(check int) "resume restores the surviving lines" (n - 1)
        s2.Runner.n_resumed;
      Alcotest.(check int) "resume classifies everything" n
        (List.length s2.Runner.results);
      (match status_of s2 "t00" with
      | Runner.Completed _ -> ()
      | st ->
          Alcotest.failf "dropped task should re-run to completion, got %s"
            (Runner.status_to_string st));
      (match status_of s2 "t01" with
      | Runner.Errored (Runner.Worker_lost _) -> ()
      | st ->
          Alcotest.failf "recorded loss should be skipped, got %s"
            (Runner.status_to_string st));
      Alcotest.(check int) "checkpoint now complete" n
        (List.length (checkpoint_lines ckpt)))

(* ---- chaos under resume converges ---- *)

let test_chaos_under_resume_converges () =
  let n = 3 in
  with_tmp (fun ckpt ->
      (* pass 1 drops write #1 (t01's loss entry) *)
      let plan =
        Chaos.explicit
          ~ckpt_faults:[ (1, Chaos.Eio) ]
          [ (1, Chaos.Kill_self) ]
      in
      ignore
        (Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~log:quiet
           ~executor:(Runner.Forked 2) ~chaos:plan (named n));
      Alcotest.(check int) "pass 1 dropped one line" (n - 1)
        (List.length (checkpoint_lines ckpt));
      (* resume under the SAME plan: the only fresh task is t01, which now
         sits at fresh index 0 — out of the schedule's blast radius — so
         the campaign converges even with chaos still on *)
      let s2 =
        Runner.run ~budgets:(budgets ()) ~checkpoint:ckpt ~resume:true
          ~log:quiet ~executor:(Runner.Forked 2) ~chaos:plan (named n)
      in
      Alcotest.(check int) "resume classifies everything" n
        (List.length s2.Runner.results);
      Alcotest.(check int) "checkpoint now complete" n
        (List.length (checkpoint_lines ckpt)))

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

(* ---- shard-scoped fault plans (guarded parallel loop execution) ---- *)

let test_shard_plan_lookup_and_summary () =
  let plan =
    Chaos.shard_explicit
      [ ((0, 1), Chaos.Kill_self); ((3, 0), Chaos.Corrupt_result) ]
  in
  (match Chaos.shard_fault plan ~invocation:0 ~shard:1 with
  | Some Chaos.Kill_self -> ()
  | _ -> Alcotest.fail "explicit shard fault not found");
  Alcotest.(check bool) "unfaulted pair clean" true
    (Chaos.shard_fault plan ~invocation:0 ~shard:0 = None);
  let s = Chaos.shard_summary plan ~invocations:4 ~shards:2 in
  Alcotest.(check bool) "summary names kill" true (contains s "kill");
  Alcotest.(check bool) "summary names corrupt" true (contains s "corrupt")

(* heavy fault pressure, but no stalls (each stall costs a watchdog wait)
   and no delays (pure noise for these assertions) *)
let soak_rates =
  { Chaos.kill = 0.4; stall = 0.0; torn = 0.25; corrupt = 0.25; delay = 0.0; ckpt = 0.0 }

let soak_seed = 11

let test_shard_seeded_deterministic () =
  let grid plan =
    List.concat_map
      (fun inv ->
        List.map
          (fun s -> Chaos.shard_fault plan ~invocation:inv ~shard:s)
          [ 0; 1; 2; 3 ])
      (List.init 64 Fun.id)
  in
  let a = grid (Chaos.shard_seeded ~rates:soak_rates soak_seed) in
  Alcotest.(check bool) "same seed, same schedule" true
    (a = grid (Chaos.shard_seeded ~rates:soak_rates soak_seed));
  Alcotest.(check bool) "soak rates actually fault" true
    (List.exists Option.is_some a);
  (* shard lanes are keyed independently of task lanes: the same seed
     must not replay the task schedule onto the shards *)
  let t = Chaos.seeded ~rates:soak_rates soak_seed in
  let tasks =
    List.concat_map
      (fun inv ->
        List.map (fun s -> Chaos.task_fault t ((inv * 8191) + s)) [ 0; 1; 2; 3 ])
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "shard lane independent of task lane" true (a <> tasks)

(* Every injected shard fault must be absorbed by rollback: the guarded
   parallel run stays byte-identical to the serial one, and infrastructure
   faults never quarantine the verdict. *)
let test_shard_faults_roll_back_to_serial () =
  let knobs =
    {
      Parrun.Runner.default_knobs with
      Parrun.Runner.jobs = 2;
      min_trip = 1;
      round_chunk = 8;
      watchdog_s = Some 2.0;
      chaos = Some (Chaos.shard_seeded ~rates:soak_rates soak_seed);
    }
  in
  match
    Parrun.Guard.run ~knobs ~predict:false ~target:"chaos_soak" good_src
  with
  | Error f -> Alcotest.fail ("guard failed: " ^ f.Loopa.Driver.message)
  | Ok r ->
      Alcotest.(check bool) "byte-identical under seeded shard faults" true
        r.Parrun.Guard.identical;
      Alcotest.(check (list string)) "no diffs" [] r.Parrun.Guard.diffs;
      Alcotest.(check int) "faults never quarantine" 0
        (Parrun.Quarantine.size
           (Parrun.Runner.quarantine r.Parrun.Guard.runner))

(* ---- telemetry: a worker's death loses none of its delivered tasks ---- *)

(* Every scored task observes [evaluate.speedup] once per ladder rung, and
   the histograms of a task a worker finished must reach the parent even
   when that worker dies later — here, killed by the last task. *)
let test_worker_histograms_survive_worker_loss () =
  let n = 6 in
  let plan = Chaos.explicit [ (n - 1, Chaos.Kill_self) ] in
  let rungs = List.length Loopa.Config.figure_ladder in
  let observe executor =
    Obs.Telemetry.reset ();
    let s =
      Runner.run ~budgets:(budgets ()) ~log:quiet ~executor ~chaos:plan
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
      Alcotest.(check int) "serial: the last task is lost" (n - 1) serial_scored;
      Alcotest.(check int) "serial: one observation per rung per scored task"
        (rungs * serial_scored) serial;
      let scored, count = observe (Runner.Forked 2) in
      Alcotest.(check int) "forked: one observation per rung per scored task"
        (rungs * scored) count;
      Alcotest.(check int) "forked: same as serial" serial count)

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
          Alcotest.test_case "Serial and Forked checkpoints agree" `Quick
            test_serial_and_forked_checkpoints_agree;
          Alcotest.test_case "completed tasks are profiled" `Quick
            test_completed_tasks_are_profiled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same checkpoint bytes" `Quick
            test_same_seed_byte_identical_checkpoints;
        ] );
      ( "shards",
        [
          Alcotest.test_case "explicit plan lookup + summary" `Quick
            test_shard_plan_lookup_and_summary;
          Alcotest.test_case "seeded plan deterministic, lane-independent"
            `Quick test_shard_seeded_deterministic;
          Alcotest.test_case "seeded shard faults converge to serial" `Quick
            test_shard_faults_roll_back_to_serial;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "dropped line heals on resume" `Quick
            test_ckpt_fault_drops_line_and_resume_heals_it;
          Alcotest.test_case "chaos under resume converges" `Quick
            test_chaos_under_resume_converges;
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
