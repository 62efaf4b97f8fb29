(* Fork-based worker pool handing out one task at a time, with reaping
   and supervised respawn (see the .mli for the contract). The parent
   owns the queue and all bookkeeping; a worker is a dumb loop: read one
   task frame, run it, reply "done" or "fail", and exit on EOF. One pipe
   pair per worker; frames via Exec.Ipc.

   Supervision: a watchdog SIGKILLs and reaps any worker whose task
   outlives the per-task wall deadline (the task is delivered as
   Timed_out, never Lost), and a dead worker is replaced at once while
   work is still queued. *)

module Json = Util.Json

type outcome =
  | Done of Json.t
  | Lost of string
  | Timed_out of float (* the configured per-task deadline that expired *)

let detect_jobs () = max 1 (Domain.recommended_domain_count ())

(* supervision counters; visible in heartbeats and Prometheus export
   when telemetry is enabled, free single-branch no-ops otherwise *)
let c_respawns = Obs.Telemetry.counter "pool.respawns"
let c_timeouts = Obs.Telemetry.counter "pool.timeouts"

(* ---- small wire helpers ---- *)

let obj_int k j = Option.bind (Json.member k j) Json.to_int

let msg_task i t = Json.Obj [ ("i", Json.Int i); ("t", t) ]

let msg_done i r =
  Json.Obj [ ("op", Json.String "done"); ("i", Json.Int i); ("r", r) ]

let msg_fail i m =
  Json.Obj
    [ ("op", Json.String "fail"); ("i", Json.Int i); ("msg", Json.String m) ]

(* Human-readable death causes. OCaml signal numbers are its own encoding,
   so translate the ones a worker plausibly dies from. *)
let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigbus then "SIGBUS"
  else Printf.sprintf "signal %d" n

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited with code %d" n
  | Unix.WSIGNALED n -> "worker killed by " ^ signal_name n
  | Unix.WSTOPPED n -> "worker stopped by " ^ signal_name n

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status_string status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> "worker already reaped"

(* ---- the worker loop ---- *)

let worker_loop rd wr ~work ~chaos =
  let send j =
    try Ipc.write wr j
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> Unix._exit 1
  in
  (* Chaos injection, once the task frame has arrived: the parent marked
     the task running when it sent it, so the sabotage lands on a task it
     knows about (and the watchdog can see a stall). Lethal faults never
     return. Returns a completion delay. *)
  let sabotage i =
    match Option.bind chaos (fun plan -> Chaos.task_fault plan i) with
    | None -> 0.0
    | Some Chaos.Kill_self ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        0.0
    | Some Chaos.Stall_self ->
        Unix.kill (Unix.getpid ()) Sys.sigstop;
        (* only reachable if someone SIGCONTs us: die rather than emit
           results the parent already classified as timed out *)
        Unix._exit 1
    | Some Chaos.Torn_result ->
        Ipc.write_faulty Ipc.Torn wr (msg_done i (Json.String "chaos-torn"));
        Unix._exit 1
    | Some Chaos.Corrupt_result ->
        Ipc.write_faulty Ipc.Corrupt wr
          (msg_done i (Json.String "chaos-corrupt"));
        Unix._exit 1
    | Some (Chaos.Delay_result d) -> d
  in
  while true do
    match Ipc.read rd with
    | Ipc.Eof -> Unix._exit 0 (* the parent closed the task pipe, or died *)
    | exception Ipc.Protocol_error _ -> Unix._exit 1
    | Ipc.Msg j -> (
        match (obj_int "i" j, Json.member "t" j) with
        | Some i, Some payload -> (
            let delay = sabotage i in
            match work payload with
            | r ->
                if delay > 0.0 then Unix.sleepf delay;
                send (msg_done i r)
            | exception e -> send (msg_fail i (Printexc.to_string e)))
        | _ -> Unix._exit 1)
  done

(* ---- parent-side bookkeeping ---- *)

type worker = {
  mutable pid : int;
  mutable wr : Unix.file_descr;
  mutable rd : Unix.file_descr;
  mutable running : int option; (* the task sent and not yet answered *)
  mutable started_at : float; (* gettimeofday when [running] was set *)
  mutable alive : bool;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let fork_worker ~other_fds ~worker_init ~work ~chaos =
  (* nothing buffered may cross the fork twice *)
  flush stdout;
  flush stderr;
  let p2c_r, p2c_w = Unix.pipe () in
  let c2p_r, c2p_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close p2c_w;
      Unix.close c2p_r;
      (* drop the parent's handles on sibling workers so their EOFs stay
         observable, and take default signal dispositions: a worker must
         die promptly, not run the campaign's graceful-interrupt logic *)
      List.iter close_quiet other_fds;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (try
         Option.iter (fun f -> f ()) worker_init;
         worker_loop p2c_r c2p_w ~work ~chaos
       with _ -> ());
      Unix._exit 1
  | pid ->
      Unix.close p2c_r;
      Unix.close c2p_w;
      {
        pid;
        wr = p2c_w;
        rd = c2p_r;
        running = None;
        started_at = 0.0;
        alive = true;
      }

let run ~jobs ?worker_init ?on_complete ?(should_stop = fun () -> false)
    ?task_deadline_s ?chaos ~work (tasks : Json.t array) =
  let n = Array.length tasks in
  let outcomes : outcome option array = Array.make n None in
  if n > 0 then begin
    let jobs = max 1 (min jobs n) in
    let pending : int Queue.t = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i pending
    done;
    let decided = ref 0 in
    let workers : worker array ref = ref [||] in
    let other_fds () =
      Array.to_list !workers
      |> List.concat_map (fun w -> if w.alive then [ w.wr; w.rd ] else [])
    in
    let spawn () =
      fork_worker ~other_fds:(other_fds ()) ~worker_init ~work ~chaos
    in
    let deliver i o =
      if outcomes.(i) = None then begin
        outcomes.(i) <- Some o;
        incr decided;
        Option.iter (fun f -> f i o) on_complete
      end
    in
    (* A dead worker is reaped at once and costs its in-flight task, which
       is never retried; an interrupted run ([stopping]) leaves that task
       undecided instead. While work is still queued the slot gets a fresh
       worker at once. Every such death decided a task, so a poison
       workload forks at most one worker per task. *)
    let rec on_death (w : worker) ~stopping =
      if w.alive then begin
        w.alive <- false;
        close_quiet w.wr;
        close_quiet w.rd;
        let cause = reap w.pid in
        let running = w.running in
        w.running <- None;
        if not stopping then begin
          Option.iter (fun i -> deliver i (Lost cause)) running;
          if not (Queue.is_empty pending) then begin
            Obs.Telemetry.incr c_respawns;
            let fresh = spawn () in
            w.pid <- fresh.pid;
            w.wr <- fresh.wr;
            w.rd <- fresh.rd;
            w.alive <- true
          end
        end
      end
    (* Hand an idle worker the next queued task, marked running from the
       moment it is sent: a worker that dies before replying costs it. *)
    and feed (w : worker) =
      if w.alive && w.running = None then
        match Queue.take_opt pending with
        | None -> ()
        | Some i -> (
            w.running <- Some i;
            w.started_at <- Unix.gettimeofday ();
            try Ipc.write w.wr (msg_task i tasks.(i))
            with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
              on_death w ~stopping:false)
    in
    (* Watchdog: a task older than the deadline costs its worker a SIGKILL
       (which also terminates a SIGSTOP-stalled process) and is delivered
       as Timed_out — with the configured deadline, not the measured
       elapsed, so the outcome is deterministic. The worker is reaped
       here, before anything else is dispatched: left for the next select
       to find, it would be handed the next queued task and lose it. *)
    let check_watchdog () =
      match task_deadline_s with
      | None -> ()
      | Some deadline ->
          let now = Unix.gettimeofday () in
          Array.iter
            (fun w ->
              match w.running with
              | Some i when w.alive && now -. w.started_at > deadline ->
                  w.running <- None;
                  (try Unix.kill w.pid Sys.sigkill
                   with Unix.Unix_error _ -> ());
                  on_death w ~stopping:false;
                  Obs.Telemetry.incr c_timeouts;
                  deliver i (Timed_out deadline)
              | _ -> ())
            !workers
    in
    (* A reply frees its worker, which gets its next task before the
       finished one is delivered: whatever [on_complete] does (the
       campaign runner writes its checkpoint) overlaps that task. *)
    let handle_msg (w : worker) j =
      match w.running with
      | Some i when obj_int "i" j = Some i ->
          let o =
            match (Json.member "op" j, Json.member "r" j) with
            | Some (Json.String "done"), Some r -> Done r
            | _ ->
                Lost
                  ("exception in worker: "
                  ^ Option.value ~default:"unknown exception"
                      (Option.bind (Json.member "msg" j) Json.to_str))
          in
          w.running <- None;
          feed w;
          deliver i o
      | _ -> ()
    in
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun w ->
            if w.alive then begin
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (reap w.pid);
              close_quiet w.wr;
              close_quiet w.rd;
              w.alive <- false
            end)
          !workers;
        Option.iter (fun b -> ignore (Sys.signal Sys.sigpipe b)) old_sigpipe)
      (fun () ->
        workers := Array.init jobs (fun _ -> spawn ());
        while !decided < n && not (should_stop ()) do
          Array.iter feed !workers;
          let rds =
            Array.to_list !workers
            |> List.filter_map (fun w -> if w.alive then Some w.rd else None)
          in
          let ready =
            match Unix.select rds [] [] 0.25 with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          List.iter
            (fun fd ->
              match Array.find_opt (fun w -> w.alive && w.rd = fd) !workers with
              | None -> ()
              | Some w -> (
                  match Ipc.read fd with
                  | Ipc.Msg j -> handle_msg w j
                  | Ipc.Eof -> on_death w ~stopping:(should_stop ())
                  | exception Ipc.Protocol_error _ ->
                      on_death w ~stopping:(should_stop ())))
            ready;
          check_watchdog ()
        done)
  end;
  outcomes
