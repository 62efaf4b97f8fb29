(* The exec subsystem: IPC framing over real pipes (roundtrip, messages
   larger than the pipe buffer, clean EOF vs torn frames) and the worker
   pool's contract — index-ordered outcomes, one completion callback per
   task, a slow task that delays only itself, fault isolation (a killed
   worker costs exactly its in-flight task and is respawned at once),
   worker_init in the workers, prompt shutdown under should_stop, and the
   watchdog. *)

module J = Util.Json
module Ipc = Exec.Ipc
module Pool = Exec.Pool

let contains = Astring_contains.contains

let json =
  Alcotest.testable
    (fun fmt j -> Format.pp_print_string fmt (J.to_string j))
    (fun a b -> J.to_string a = J.to_string b)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

(* ---- IPC framing ---- *)

let test_ipc_roundtrip () =
  with_pipe (fun r w ->
      let msgs =
        [
          J.Obj [ ("i", J.Int 1); ("t", J.List [ J.Int 1; J.Int 2 ]) ];
          J.Null;
          J.List [ J.Float 1.5; J.Bool true; J.String "x\"y\n" ];
        ]
      in
      List.iter (Ipc.write w) msgs;
      List.iter
        (fun m ->
          match Ipc.read r with
          | Ipc.Msg got -> Alcotest.check json "frame" m got
          | Ipc.Eof -> Alcotest.fail "unexpected EOF")
        msgs)

(* A frame bigger than any pipe buffer must cross intact — this is what a
   worker's result-with-span-snapshot payload looks like. The writer must
   be a separate process (a single process would deadlock on the full
   pipe). *)
let test_ipc_large_message () =
  with_pipe (fun r w ->
      let big = J.Obj [ ("blob", J.String (String.make 300_000 'x')) ] in
      match Unix.fork () with
      | 0 ->
          Unix.close r;
          (try Ipc.write w big with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.close w;
          (match Ipc.read r with
          | Ipc.Msg got -> Alcotest.check json "large frame" big got
          | Ipc.Eof -> Alcotest.fail "unexpected EOF");
          ignore (Unix.waitpid [] pid))

let test_ipc_eof_at_boundary () =
  with_pipe (fun r w ->
      Ipc.write w (J.Int 7);
      Unix.close w;
      (match Ipc.read r with
      | Ipc.Msg got -> Alcotest.check json "last frame" (J.Int 7) got
      | Ipc.Eof -> Alcotest.fail "early EOF");
      match Ipc.read r with
      | Ipc.Eof -> ()
      | Ipc.Msg _ -> Alcotest.fail "expected EOF at frame boundary")

let test_ipc_torn_frame () =
  (* a header promising more bytes than ever arrive is a protocol error,
     not a silent truncation *)
  with_pipe (fun r w ->
      let header = Bytes.of_string "\x00\x00\x00\x10" (* 16-byte payload *) in
      ignore (Unix.write w header 0 4);
      ignore (Unix.write_substring w "{\"a\"" 0 4);
      Unix.close w;
      match Ipc.read r with
      | exception Ipc.Protocol_error m ->
          Alcotest.(check bool) "names the payload" true (contains m "payload")
      | Ipc.Msg _ | Ipc.Eof -> Alcotest.fail "torn frame not detected")

let test_ipc_oversized_frame () =
  with_pipe (fun r w ->
      (* header claiming 128 MiB, over the 64 MiB cap *)
      let header = Bytes.of_string "\x08\x00\x00\x00" in
      ignore (Unix.write w header 0 4);
      match Ipc.read r with
      | exception Ipc.Protocol_error m ->
          Alcotest.(check bool) "names the limit" true (contains m "limit")
      | Ipc.Msg _ | Ipc.Eof -> Alcotest.fail "oversized frame not rejected")

(* ---- IPC fault injection (the chaos writer) ---- *)

let test_ipc_write_faulty_torn () =
  with_pipe (fun r w ->
      Ipc.write_faulty Ipc.Torn w (J.Obj [ ("op", J.String "done") ]);
      Unix.close w;
      match Ipc.read r with
      | exception Ipc.Protocol_error m ->
          Alcotest.(check bool) "reads as a torn payload" true
            (contains m "payload")
      | _ -> Alcotest.fail "torn frame should be a protocol error")

let test_ipc_write_faulty_corrupt () =
  with_pipe (fun r w ->
      Ipc.write_faulty Ipc.Corrupt w (J.Obj [ ("op", J.String "done") ]);
      Unix.close w;
      match Ipc.read r with
      | exception Ipc.Protocol_error m ->
          Alcotest.(check bool) "reads as garbage" true
            (contains m "unparseable")
      | _ -> Alcotest.fail "corrupt frame should be a protocol error")

let test_ipc_write_faulty_delay_is_lossless () =
  with_pipe (fun r w ->
      let msg = J.Obj [ ("op", J.String "done"); ("i", J.Int 3) ] in
      let t0 = Unix.gettimeofday () in
      Ipc.write_faulty (Ipc.Delay 0.05) w msg;
      Alcotest.(check bool) "the delay actually happened" true
        (Unix.gettimeofday () -. t0 >= 0.045);
      match Ipc.read r with
      | Ipc.Msg got -> Alcotest.check json "frame intact" msg got
      | Ipc.Eof -> Alcotest.fail "unexpected EOF")

(* ---- pool: ordering ---- *)

let task_index payload = Option.value ~default:(-1) (J.to_int payload)

(* [f ()] with telemetry on, plus how far it moved the pool's respawn and
   timeout counters (they count only while telemetry is enabled) *)
let with_pool_counters f =
  let respawns = Obs.Telemetry.counter "pool.respawns"
  and timeouts = Obs.Telemetry.counter "pool.timeouts" in
  Obs.Telemetry.enable ();
  Fun.protect ~finally:Obs.Telemetry.disable (fun () ->
      let r0 = Obs.Telemetry.value respawns
      and t0 = Obs.Telemetry.value timeouts in
      let r = f () in
      (r, Obs.Telemetry.value respawns - r0, Obs.Telemetry.value timeouts - t0))

let count_lost outcomes =
  Array.fold_left
    (fun acc o -> match o with Some (Pool.Lost _) -> acc + 1 | _ -> acc)
    0 outcomes

let test_pool_outcomes_in_index_order () =
  let n = 12 in
  let completions = ref 0 in
  let work payload =
    let i = task_index payload in
    (* stagger completions so they genuinely arrive out of index order *)
    if i mod 3 = 0 then Unix.sleepf 0.05;
    J.Int (i * 10)
  in
  let outcomes, respawns, _ =
    with_pool_counters (fun () ->
        Pool.run ~jobs:4 ~work
          ~on_complete:(fun _ _ -> incr completions)
          (Array.init n (fun i -> J.Int i)))
  in
  Alcotest.(check int) "every task completed once" n !completions;
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Done r) -> Alcotest.check json "result" (J.Int (i * 10)) r
      | Some (Pool.Lost c) -> Alcotest.fail ("task lost: " ^ c)
      | Some (Pool.Timed_out _) -> Alcotest.fail "spurious timeout"
      | None -> Alcotest.fail "undecided task")
    outcomes;
  Alcotest.(check int) "initial fleet only" 0 respawns

(* ---- pool: one task at a time ---- *)

let test_pool_slow_task_delays_only_itself () =
  (* jobs=2, 12 tasks, task 0 sleeps: the other worker drains the whole
     queue meanwhile, so task 0 is the last to complete *)
  let work payload =
    let i = task_index payload in
    if i = 0 then Unix.sleepf 0.5;
    J.Int i
  in
  let order = ref [] in
  let outcomes =
    Pool.run ~jobs:2 ~work
      ~on_complete:(fun i _ -> order := i :: !order)
      (Array.init 12 (fun i -> J.Int i))
  in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Done r) -> Alcotest.check json "result" (J.Int i) r
      | _ -> Alcotest.fail "task lost or undecided")
    outcomes;
  Alcotest.(check int) "task 0 completes after every other task" 0
    (List.hd !order)

(* ---- pool: fault isolation ---- *)

let test_pool_killed_worker_costs_one_task () =
  let victim = 3 in
  let work payload =
    let i = task_index payload in
    if i = victim then Unix.kill (Unix.getpid ()) Sys.sigkill;
    (* keep the queue non-empty when the victim dies, so the respawn
       actually happens (an empty queue makes respawning pointless) *)
    Unix.sleepf 0.03;
    J.Int i
  in
  let outcomes, respawns, _ =
    with_pool_counters (fun () ->
        Pool.run ~jobs:2 ~work (Array.init 8 (fun i -> J.Int i)))
  in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Lost cause) ->
          Alcotest.(check int) "only the victim is lost" victim i;
          Alcotest.(check bool) "cause names the signal" true
            (contains cause "SIGKILL")
      | Some (Pool.Done r) -> Alcotest.check json "survivor result" (J.Int i) r
      | Some (Pool.Timed_out _) -> Alcotest.fail "spurious timeout"
      | None -> Alcotest.fail "undecided task")
    outcomes;
  Alcotest.(check int) "exactly one task lost" 1 (count_lost outcomes);
  Alcotest.(check int) "the dead worker was respawned" 1 respawns

let test_pool_worker_exception_is_lost_not_fatal () =
  let work payload =
    let i = task_index payload in
    if i = 2 then failwith "boom";
    J.Int i
  in
  let outcomes, respawns, _ =
    with_pool_counters (fun () ->
        Pool.run ~jobs:2 ~work (Array.init 6 (fun i -> J.Int i)))
  in
  (match outcomes.(2) with
  | Some (Pool.Lost cause) ->
      Alcotest.(check bool) "cause carries the exception" true
        (contains cause "boom")
  | _ -> Alcotest.fail "raising task should be Lost");
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Some (Pool.Done r) -> Alcotest.check json "survivor" (J.Int i) r
        | _ -> Alcotest.fail "non-raising task damaged")
    outcomes;
  (* the worker survived its exception: no respawn was needed *)
  Alcotest.(check int) "no respawn" 0 respawns

(* ---- pool: worker lifecycle hooks ---- *)

let test_pool_worker_init_runs_in_workers () =
  let inits = ref 0 in
  let work _ = J.Int !inits in
  let outcomes =
    Pool.run ~jobs:2
      ~worker_init:(fun () -> incr inits)
      ~work
      (Array.init 6 (fun i -> J.Int i))
  in
  (* every task sees its own worker's single init; the parent's is untouched *)
  Array.iter
    (fun o ->
      match o with
      | Some (Pool.Done r) -> Alcotest.check json "one init per worker" (J.Int 1) r
      | _ -> Alcotest.fail "task lost or undecided")
    outcomes;
  Alcotest.(check int) "parent inits untouched" 0 !inits

let test_pool_should_stop_returns_promptly () =
  let work payload = payload in
  let outcomes =
    Pool.run ~jobs:2
      ~should_stop:(fun () -> true)
      ~work
      (Array.init 4 (fun i -> J.Int i))
  in
  Alcotest.(check bool) "nothing decided after an immediate stop" true
    (Array.for_all (fun o -> o = None) outcomes)

let test_detect_jobs_positive () =
  Alcotest.(check bool) "at least one core" true (Pool.detect_jobs () >= 1)

module Chaos = Exec.Chaos

(* ---- pool: supervision ---- *)

let test_pool_watchdog_reaps_stalled_task () =
  let victim = 1 in
  let work payload =
    let i = task_index payload in
    if i = victim then Unix.sleepf 30.0;
    J.Int i
  in
  let outcomes, _, timeouts =
    with_pool_counters (fun () ->
        Pool.run ~jobs:2 ~task_deadline_s:0.5 ~work
          (Array.init 4 (fun i -> J.Int i)))
  in
  (match outcomes.(victim) with
  | Some (Pool.Timed_out d) ->
      Alcotest.(check (float 1e-9)) "carries the configured deadline" 0.5 d
  | _ -> Alcotest.fail "stalled task should be Timed_out");
  Array.iteri
    (fun i o ->
      if i <> victim then
        match o with
        | Some (Pool.Done r) -> Alcotest.check json "survivor" (J.Int i) r
        | _ -> Alcotest.fail "non-stalled task damaged")
    outcomes;
  Alcotest.(check int) "one timeout" 1 timeouts

let test_pool_watchdog_reaps_sigstopped_worker () =
  (* the hard case: a SIGSTOP'd worker makes no syscalls and holds its
     pipes open — only the parent-side SIGKILL can resolve it *)
  let chaos = Chaos.explicit [ (2, Chaos.Stall_self) ] in
  let work payload = J.Int (task_index payload) in
  let t0 = Unix.gettimeofday () in
  let outcomes, _, timeouts =
    with_pool_counters (fun () ->
        Pool.run ~jobs:2 ~task_deadline_s:0.5 ~chaos ~work
          (Array.init 5 (fun i -> J.Int i)))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcomes.(2) with
  | Some (Pool.Timed_out _) -> ()
  | _ -> Alcotest.fail "SIGSTOP-stalled task should be Timed_out");
  Alcotest.(check bool)
    (Printf.sprintf "reaped promptly (%.2fs), not hung" elapsed)
    true (elapsed < 5.0);
  Alcotest.(check int) "one timeout" 1 timeouts;
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Some (Pool.Done r) -> Alcotest.check json "survivor" (J.Int i) r
        | _ -> Alcotest.fail "non-stalled task damaged")
    outcomes

let test_pool_watchdog_kill_costs_one_task () =
  (* one worker: the watchdog kills it on task 0 while tasks 1-3 wait in
     the queue. The killed worker must be reaped before the next dispatch,
     or task 1 is sent to a dying process and comes back Lost. *)
  let work payload =
    let i = task_index payload in
    if i = 0 then Unix.sleepf 30.0;
    J.Int i
  in
  let outcomes, _, timeouts =
    with_pool_counters (fun () ->
        Pool.run ~jobs:1 ~task_deadline_s:0.3 ~work
          (Array.init 4 (fun i -> J.Int i)))
  in
  (match outcomes.(0) with
  | Some (Pool.Timed_out d) ->
      Alcotest.(check (float 1e-9)) "carries the configured deadline" 0.3 d
  | _ -> Alcotest.fail "task 0 should be Timed_out");
  Array.iteri
    (fun i o ->
      if i <> 0 then
        match o with
        | Some (Pool.Done r) -> Alcotest.check json "queued task" (J.Int i) r
        | Some (Pool.Lost c) -> Alcotest.failf "task %d lost: %s" i c
        | _ -> Alcotest.failf "task %d timed out or undecided" i)
    outcomes;
  Alcotest.(check int) "one timeout" 1 timeouts

let test_pool_poison_streak_never_sleeps () =
  (* every task SIGKILLs its worker: each death costs its own task and the
     slot is refilled at once, so the streak forks at most one worker per
     task and never waits between them *)
  let work _ =
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    J.Null
  in
  let n = 12 in
  let t0 = Unix.gettimeofday () in
  let outcomes, respawns, _ =
    with_pool_counters (fun () ->
        Pool.run ~jobs:2 ~work (Array.init n (fun i -> J.Int i)))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Lost cause) ->
          Alcotest.(check bool) "cause names the signal" true
            (contains cause "SIGKILL")
      | Some _ -> Alcotest.failf "task %d outlived its SIGKILL" i
      | None -> Alcotest.failf "task %d left undecided" i)
    outcomes;
  Alcotest.(check bool)
    (Printf.sprintf "at most one respawn per task (%d)" respawns)
    true (respawns <= n);
  Alcotest.(check bool)
    (Printf.sprintf "no respawn delay (%.2fs)" elapsed)
    true (elapsed < 2.0)

(* ---- pool: chaos faults surface as the right outcomes ---- *)

let test_pool_chaos_lethal_faults_cost_their_task () =
  let chaos =
    Chaos.explicit
      [ (1, Chaos.Kill_self); (3, Chaos.Torn_result); (4, Chaos.Corrupt_result) ]
  in
  let work payload = J.Int (task_index payload * 2) in
  let outcomes = Pool.run ~jobs:2 ~chaos ~work (Array.init 6 (fun i -> J.Int i)) in
  let lethal = [ 1; 3; 4 ] in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Lost cause) ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d planned lethal" i)
            true (List.mem i lethal);
          (* kill reaps as a signal; torn/corrupt workers _exit 1 *)
          let expected = if i = 1 then "SIGKILL" else "exited with code 1" in
          Alcotest.(check bool)
            (Printf.sprintf "cause %S matches the fault" cause)
            true (contains cause expected)
      | Some (Pool.Done r) ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d planned survivor" i)
            true
            (not (List.mem i lethal));
          Alcotest.check json "survivor result" (J.Int (i * 2)) r
      | Some (Pool.Timed_out _) -> Alcotest.fail "no stall was planned"
      | None -> Alcotest.fail "undecided task")
    outcomes;
  Alcotest.(check int) "three losses" 3 (count_lost outcomes)

let test_pool_chaos_delay_is_lossless () =
  let chaos = Chaos.explicit [ (0, Chaos.Delay_result 0.1) ] in
  let work payload = J.Int (task_index payload) in
  let outcomes = Pool.run ~jobs:2 ~chaos ~work (Array.init 4 (fun i -> J.Int i)) in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Done r) -> Alcotest.check json "result" (J.Int i) r
      | _ -> Alcotest.fail "delay must not lose the task")
    outcomes

let () =
  Alcotest.run "exec"
    [
      ( "ipc",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipc_roundtrip;
          Alcotest.test_case "large message" `Quick test_ipc_large_message;
          Alcotest.test_case "EOF at frame boundary" `Quick test_ipc_eof_at_boundary;
          Alcotest.test_case "torn frame" `Quick test_ipc_torn_frame;
          Alcotest.test_case "oversized frame" `Quick test_ipc_oversized_frame;
          Alcotest.test_case "faulty writer: torn" `Quick
            test_ipc_write_faulty_torn;
          Alcotest.test_case "faulty writer: corrupt" `Quick
            test_ipc_write_faulty_corrupt;
          Alcotest.test_case "faulty writer: delay is lossless" `Quick
            test_ipc_write_faulty_delay_is_lossless;
        ] );
      ( "pool",
        [
          Alcotest.test_case "outcomes in index order" `Quick
            test_pool_outcomes_in_index_order;
          Alcotest.test_case "a slow task delays only itself" `Quick
            test_pool_slow_task_delays_only_itself;
          Alcotest.test_case "killed worker costs one task" `Quick
            test_pool_killed_worker_costs_one_task;
          Alcotest.test_case "worker exception is Lost" `Quick
            test_pool_worker_exception_is_lost_not_fatal;
          Alcotest.test_case "worker_init runs in the workers" `Quick
            test_pool_worker_init_runs_in_workers;
          Alcotest.test_case "should_stop returns promptly" `Quick
            test_pool_should_stop_returns_promptly;
          Alcotest.test_case "detect_jobs" `Quick test_detect_jobs_positive;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "watchdog reaps a stalled task" `Quick
            test_pool_watchdog_reaps_stalled_task;
          Alcotest.test_case "watchdog reaps a SIGSTOP'd worker" `Quick
            test_pool_watchdog_reaps_sigstopped_worker;
          Alcotest.test_case "watchdog kill costs one task" `Quick
            test_pool_watchdog_kill_costs_one_task;
          Alcotest.test_case
            "a poison streak costs one task each, without sleeping" `Quick
            test_pool_poison_streak_never_sleeps;
          Alcotest.test_case "chaos lethal faults cost one task each" `Quick
            test_pool_chaos_lethal_faults_cost_their_task;
          Alcotest.test_case "chaos delay is lossless" `Quick
            test_pool_chaos_delay_is_lossless;
        ] );
    ]
