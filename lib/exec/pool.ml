(* Fork-based worker pool handing out one task at a time, with reaping
   and supervised respawn (see the .mli for the contract). The parent
   owns the queue and all bookkeeping; a worker is a dumb loop: read one
   task frame, run it, reply with its result or its exception, and exit
   on EOF. One pipe pair per worker; frames via Exec.Ipc. An idle worker
   is retired as soon as nothing is queued: the parent closes its task
   pipe and it exits while the others finish.

   Supervision: a watchdog SIGKILLs and reaps any worker whose task
   outlives the per-task wall deadline (the task is delivered as
   Timed_out, never Lost), and a dead worker is replaced at once while
   work is still queued. *)

type 'b outcome =
  | Done of 'b
  | Lost of string
  | Timed_out of float (* the configured per-task deadline that expired *)

type fault = Kill_self | Stall_self | Torn_result | Corrupt_result

(* A worker's answer to the task frame [(i, task)]. *)
type 'b reply = Finished of int * 'b | Failed of int * string

let detect_jobs () = max 1 (Domain.recommended_domain_count ())

(* supervision counters; visible in heartbeats and Prometheus export
   when telemetry is enabled, free single-branch no-ops otherwise *)
let c_respawns = Obs.Telemetry.counter "pool.respawns"
let c_timeouts = Obs.Telemetry.counter "pool.timeouts"

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

let worker_loop rd wr ~(work : 'a -> 'b) ~faults =
  let send (reply : 'b reply) =
    try Ipc.write wr reply
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> Unix._exit 1
  in
  (* A task's fault fires once its frame has arrived: the parent marked
     the task running when it sent it, so the fault lands on a task it
     knows about (and the watchdog can see a stall). No fault returns. *)
  let sabotage i = function
    | Kill_self ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        Unix._exit 1
    | Stall_self ->
        Unix.kill (Unix.getpid ()) Sys.sigstop;
        (* only reachable if someone SIGCONTs us: die rather than emit
           results the parent already classified as timed out *)
        Unix._exit 1
    | Torn_result ->
        Ipc.write_faulty Ipc.Torn wr (Failed (i, "torn"));
        Unix._exit 1
    | Corrupt_result ->
        Ipc.write_faulty Ipc.Corrupt wr (Failed (i, "corrupt"));
        Unix._exit 1
  in
  while true do
    match Ipc.read rd with
    | Ipc.Eof -> Unix._exit 0 (* the parent closed the task pipe, or died *)
    | exception Ipc.Protocol_error _ -> Unix._exit 1
    | Ipc.Msg (i, task) -> (
        Option.iter (sabotage i) (List.assoc_opt i faults);
        match work task with
        | r -> send (Finished (i, r))
        | exception e -> send (Failed (i, Printexc.to_string e)))
  done

(* ---- parent-side bookkeeping ---- *)

type worker = {
  mutable pid : int;
  mutable wr : Unix.file_descr;
  mutable rd : Unix.file_descr;
  mutable running : int option; (* the task sent and not yet answered *)
  mutable started_at : float; (* gettimeofday when [running] was set *)
  mutable alive : bool;
  mutable retired : bool; (* its task pipe [wr] is closed: it exits on EOF *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let fork_worker ~other_fds ~worker_init ~work ~faults =
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
         worker_loop p2c_r c2p_w ~work ~faults
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
        retired = false;
      }

let run ~jobs ?worker_init ?on_complete ?(should_stop = fun () -> false)
    ?task_deadline_s ?(faults = []) ~(work : 'a -> 'b) (tasks : 'a array) =
  let n = Array.length tasks in
  let outcomes : 'b outcome option array = Array.make n None in
  if n > 0 then begin
    let jobs = max 1 (min jobs n) in
    let pending : int Queue.t = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i pending
    done;
    let decided = ref 0 in
    let workers : worker array ref = ref [||] in
    (* A worker is forked only while tasks are queued, and retired only
       once none are, so no live worker is retired yet: both of its
       pipe ends are still open in the parent. *)
    let other_fds () =
      Array.to_list !workers
      |> List.concat_map (fun w -> if w.alive then [ w.wr; w.rd ] else [])
    in
    let spawn () =
      fork_worker ~other_fds:(other_fds ()) ~worker_init ~work ~faults
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
        if not w.retired then close_quiet w.wr;
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
       moment it is sent: a worker that dies before replying costs it.
       With nothing queued, retire it: closing its task pipe ends it (EOF),
       and it exits while the parent waits for the others. Every pass
       visits every idle worker, so [retired] keeps a retired worker's
       closed descriptor from being closed again after its number was
       reused (say, for the campaign checkpoint). *)
    and feed (w : worker) =
      if w.alive && w.running = None && not w.retired then
        match Queue.take_opt pending with
        | None ->
            w.retired <- true;
            close_quiet w.wr
        | Some i -> (
            w.running <- Some i;
            w.started_at <- Unix.gettimeofday ();
            try Ipc.write w.wr (i, tasks.(i))
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
    let handle_msg (w : worker) (reply : 'b reply) =
      let i, o =
        match reply with
        | Finished (i, r) -> (i, Done r)
        | Failed (i, m) -> (i, Lost ("exception in worker: " ^ m))
      in
      if w.running = Some i then begin
        w.running <- None;
        feed w;
        deliver i o
      end
    in
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
    in
    (* Ending the run: a worker not retired is killed (it may hold a
       task), a retired one is already on its way out. Every pipe is
       closed before any worker is reaped, so no wait can hang on a pipe
       the parent holds. *)
    Fun.protect
      ~finally:(fun () ->
        let live = List.filter (fun w -> w.alive) (Array.to_list !workers) in
        List.iter
          (fun w ->
            if not w.retired then begin
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
              close_quiet w.wr
            end;
            close_quiet w.rd)
          live;
        List.iter
          (fun w ->
            ignore (reap w.pid);
            w.alive <- false)
          live;
        Option.iter (fun b -> ignore (Sys.signal Sys.sigpipe b)) old_sigpipe)
      (fun () ->
        (* one at a time, so each fork sees, and closes, the parent's ends
           of every sibling forked before it *)
        for _ = 1 to jobs do
          workers := Array.append !workers [| spawn () |]
        done;
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
