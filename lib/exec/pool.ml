(* Fork-based worker pool with chunked dispatch, work-stealing, reaping
   and supervised respawn (see the .mli for the contract). The parent
   owns the queue and all bookkeeping; workers are a dumb loop: read a
   chunk, announce each task ("start"), run it, report ("done"/"fail"),
   hand unstarted tasks back when asked ("steal" -> "stolen"), and send
   an epilogue ("bye") on "quit". One pipe pair per worker; frames via
   Exec.Ipc.

   Supervision: a watchdog SIGKILLs any worker whose announced task
   outlives the per-task wall deadline (the task is delivered as
   Timed_out, never Lost); respawns are scheduled through an
   exponential-backoff ladder instead of happening instantly; and a
   circuit breaker — or exhausted respawn capacity — makes the pool
   return early with the undecided outcomes still None, so the caller
   can finish the work another way instead of the pool draining the
   queue as Lost. *)

module Json = Util.Json

type outcome =
  | Done of Json.t
  | Lost of string
  | Timed_out of float (* the configured per-task deadline that expired *)

type stats = {
  forked : int;
  respawned : int;
  steals : int;
  tasks_lost : int;
  timeouts : int;
  backoff_waits : int;
  backoff_wait_s : float;
  breaker_trips : int;
  gave_up : string option;
}

let zero_stats =
  {
    forked = 0;
    respawned = 0;
    steals = 0;
    tasks_lost = 0;
    timeouts = 0;
    backoff_waits = 0;
    backoff_wait_s = 0.0;
    breaker_trips = 0;
    gave_up = None;
  }

let detect_jobs () = max 1 (Domain.recommended_domain_count ())

(* supervision counters; visible in heartbeats and Prometheus export
   when telemetry is enabled, free single-branch no-ops otherwise *)
let c_respawns = Obs.Telemetry.counter "pool.respawns"
let c_timeouts = Obs.Telemetry.counter "pool.timeouts"
let c_backoff_waits = Obs.Telemetry.counter "pool.backoff_waits"
let c_breaker_trips = Obs.Telemetry.counter "pool.breaker_trips"

(* ---- small wire helpers ---- *)

let obj_op j = Option.bind (Json.member "op" j) Json.to_str

let obj_int k j = Option.bind (Json.member k j) Json.to_int

let msg_start i = Json.Obj [ ("op", Json.String "start"); ("i", Json.Int i) ]

let msg_done i r =
  Json.Obj [ ("op", Json.String "done"); ("i", Json.Int i); ("r", r) ]

let msg_fail i m =
  Json.Obj
    [ ("op", Json.String "fail"); ("i", Json.Int i); ("msg", Json.String m) ]

let msg_stolen is =
  Json.Obj
    [
      ("op", Json.String "stolen");
      ("is", Json.List (List.map (fun i -> Json.Int i) is));
    ]

let msg_bye e = Json.Obj [ ("op", Json.String "bye"); ("e", e) ]

let msg_chunk tasks =
  Json.Obj
    [
      ("op", Json.String "chunk");
      ( "tasks",
        Json.List
          (List.map
             (fun (i, t) -> Json.Obj [ ("i", Json.Int i); ("t", t) ])
             tasks) );
    ]

let msg_steal = Json.Obj [ ("op", Json.String "steal") ]

let msg_quit = Json.Obj [ ("op", Json.String "quit") ]

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

let fd_readable ?(timeout = 0.0) fd =
  match Unix.select [ fd ] [] [] timeout with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* ---- the worker loop ---- *)

let worker_loop rd wr ~work ~epilogue ~chaos =
  let pending : (int * Json.t) Queue.t = Queue.create () in
  let send j =
    try Ipc.write wr j
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> Unix._exit 1
  in
  let bye () =
    let e = match epilogue with Some f -> f () | None -> Json.Null in
    send (msg_bye e);
    Unix._exit 0
  in
  let handle j =
    match obj_op j with
    | Some "chunk" ->
        List.iter
          (fun t ->
            match (obj_int "i" t, Json.member "t" t) with
            | Some i, Some payload -> Queue.add (i, payload) pending
            | _ -> ())
          (Option.value ~default:[]
             (Option.bind (Json.member "tasks" j) Json.to_list))
    | Some "steal" ->
        (* Give back everything unstarted except one task to stay busy on;
           an idle worker (empty queue) replies with nothing. *)
        if Queue.length pending >= 2 then begin
          let keep = Queue.pop pending in
          let given = Queue.fold (fun acc (i, _) -> i :: acc) [] pending in
          Queue.clear pending;
          Queue.add keep pending;
          send (msg_stolen (List.rev given))
        end
        else send (msg_stolen [])
    | Some "quit" -> bye ()
    | _ -> ()
  in
  let read_one () =
    match Ipc.read rd with
    | Ipc.Eof -> Unix._exit 1 (* parent died *)
    | Ipc.Msg j -> handle j
    | exception Ipc.Protocol_error _ -> Unix._exit 1
  in
  (* Chaos injection, after the "start" announcement so the parent knows
     which task the sabotage lands on (and the watchdog can see a
     stall). Lethal faults never return. Returns a completion delay. *)
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
    if Queue.is_empty pending then read_one ()
    else begin
      (* between tasks, drain any control traffic (steal/quit) first *)
      while (not (Queue.is_empty pending)) && fd_readable rd do
        read_one ()
      done;
      match Queue.take_opt pending with
      | None -> ()
      | Some (i, payload) -> (
          send (msg_start i);
          let delay = sabotage i in
          match work payload with
          | r ->
              if delay > 0.0 then Unix.sleepf delay;
              send (msg_done i r)
          | exception e -> send (msg_fail i (Printexc.to_string e)))
    end
  done

(* ---- parent-side bookkeeping ---- *)

type worker = {
  mutable pid : int;
  mutable wr : Unix.file_descr;
  mutable rd : Unix.file_descr;
  mutable assigned : int list; (* dispatched, not yet started *)
  mutable running : int option;
  mutable started_at : float; (* gettimeofday when [running] was set *)
  mutable steal_pending : bool;
  mutable alive : bool;
  mutable respawn_at : float option; (* dead slot scheduled for revival *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let fork_worker ~other_fds ~worker_init ~work ~epilogue ~chaos =
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
         worker_loop p2c_r c2p_w ~work ~epilogue ~chaos
       with _ -> ());
      Unix._exit 1
  | pid ->
      Unix.close p2c_r;
      Unix.close c2p_w;
      {
        pid;
        wr = p2c_w;
        rd = c2p_r;
        assigned = [];
        running = None;
        started_at = 0.0;
        steal_pending = false;
        alive = true;
        respawn_at = None;
      }

let run ~jobs ?(max_chunk = 8) ?worker_init ?epilogue ?on_epilogue ?on_complete
    ?(should_stop = fun () -> false) ?task_deadline_s ?backoff ?breaker ?chaos
    ~work (tasks : Json.t array) :
    outcome option array * stats =
  let n = Array.length tasks in
  let outcomes : outcome option array = Array.make n None in
  if n = 0 then (outcomes, zero_stats)
  else begin
    let jobs = max 1 (min jobs n) in
    let backoff =
      match backoff with Some b -> b | None -> Backoff.create ~seed:0 ()
    in
    let pending : int Queue.t = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i pending
    done;
    let decided = ref 0 in
    let forked = ref 0 in
    let respawned = ref 0 in
    let steals = ref 0 in
    let tasks_lost = ref 0 in
    let timeouts = ref 0 in
    let backoff_waits = ref 0 in
    let backoff_wait_s = ref 0.0 in
    let gave_up : string option ref = ref None in
    let respawn_budget = ref (n + (2 * jobs)) in
    let workers : worker array ref = ref [||] in
    let other_fds () =
      Array.to_list !workers
      |> List.concat_map (fun w -> if w.alive then [ w.wr; w.rd ] else [])
    in
    let spawn () =
      incr forked;
      fork_worker ~other_fds:(other_fds ()) ~worker_init ~work ~epilogue ~chaos
    in
    let deliver i o =
      if outcomes.(i) = None then begin
        outcomes.(i) <- Some o;
        incr decided;
        (match o with
        | Lost _ ->
            incr tasks_lost;
            Option.iter
              (fun b ->
                let was = Breaker.tripped b in
                Breaker.record_failure b;
                if (not was) && Breaker.tripped b then
                  Obs.Telemetry.incr c_breaker_trips)
              breaker
        | Timed_out _ ->
            incr timeouts;
            Obs.Telemetry.incr c_timeouts;
            Option.iter
              (fun b ->
                let was = Breaker.tripped b in
                Breaker.record_failure b;
                if (not was) && Breaker.tripped b then
                  Obs.Telemetry.incr c_breaker_trips)
              breaker
        | Done _ ->
            Backoff.reset backoff;
            Option.iter Breaker.record_success breaker);
        Option.iter (fun f -> f i o) on_complete
      end
    in
    let respawn_now (w : worker) =
      incr respawned;
      Obs.Telemetry.incr c_respawns;
      let fresh = spawn () in
      w.pid <- fresh.pid;
      w.wr <- fresh.wr;
      w.rd <- fresh.rd;
      w.started_at <- 0.0;
      w.respawn_at <- None;
      w.alive <- true
    in
    (* forward declaration to let dispatch and the death path recurse *)
    let rec on_death (w : worker) ~stopping =
      if w.alive then begin
        w.alive <- false;
        close_quiet w.wr;
        close_quiet w.rd;
        let cause = reap w.pid in
        if stopping then begin
          (* interrupted run: in-flight work is simply not decided *)
          Option.iter
            (fun i -> if outcomes.(i) = None then Queue.add i pending)
            w.running;
          List.iter (fun i -> Queue.add i pending) w.assigned
        end
        else begin
          Option.iter (fun i -> deliver i (Lost cause)) w.running;
          List.iter (fun i -> Queue.add i pending) w.assigned
        end;
        w.running <- None;
        w.assigned <- [];
        w.steal_pending <- false;
        (* Supervised respawn: never instant — each consecutive failure
           climbs the backoff ladder (a Done resets it), so a poison
           workload can't turn the parent into a fork storm. A slot with
           no budget just stays dead; if that was the last capacity the
           main loop notices and gives up rather than draining the queue
           as Lost. *)
        if (not stopping) && (not (Queue.is_empty pending)) && !respawn_budget > 0
        then begin
          decr respawn_budget;
          let delay = Backoff.next backoff in
          if delay <= 0.0 then respawn_now w
          else begin
            incr backoff_waits;
            Obs.Telemetry.incr c_backoff_waits;
            backoff_wait_s := !backoff_wait_s +. delay;
            w.respawn_at <- Some (Unix.gettimeofday () +. delay)
          end
        end
      end
    and send_to w j =
      try Ipc.write w.wr j
      with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
        on_death w ~stopping:false
    in
    let dispatch () =
      let ws = !workers in
      (* hand chunks to idle workers while the queue lasts *)
      Array.iter
        (fun w ->
          if
            w.alive && w.assigned = [] && w.running = None
            && not (Queue.is_empty pending)
          then begin
            let size =
              max 1 (min max_chunk (Queue.length pending / (2 * jobs)))
            in
            let chunk = ref [] in
            for _ = 1 to size do
              match Queue.take_opt pending with
              | Some i -> chunk := i :: !chunk
              | None -> ()
            done;
            let chunk = List.rev !chunk in
            if chunk <> [] then begin
              w.assigned <- chunk;
              send_to w (msg_chunk (List.map (fun i -> (i, tasks.(i))) chunk))
            end
          end)
        ws;
      (* queue dry + idle hands: steal back the largest unstarted backlog *)
      if Queue.is_empty pending then
        let idle =
          Array.exists
            (fun w -> w.alive && w.assigned = [] && w.running = None)
            ws
        in
        if idle then
          let victim =
            (* a worker always keeps one unstarted task for itself, so a
               backlog of one can never be reclaimed — asking would just
               ping-pong empty steal replies against a busy straggler *)
            Array.fold_left
              (fun best w ->
                if
                  w.alive && (not w.steal_pending)
                  && List.length w.assigned >= 2
                then
                  match best with
                  | Some b when List.length b.assigned >= List.length w.assigned
                    ->
                      best
                  | _ -> Some w
                else best)
              None ws
          in
          match victim with
          | Some v ->
              v.steal_pending <- true;
              send_to v msg_steal
          | None -> ()
    in
    (* Watchdog: any announced task older than the deadline costs its
       worker a SIGKILL (which also terminates a SIGSTOP-stalled
       process) and is delivered as Timed_out — with the configured
       deadline, not the measured elapsed, so the outcome is
       deterministic. The death surfaces as EOF on the next select and
       takes the normal requeue/respawn path; running is cleared here so
       the reaper does not re-deliver the task as Lost. *)
    let check_watchdog () =
      match task_deadline_s with
      | None -> ()
      | Some deadline ->
          let now = Unix.gettimeofday () in
          Array.iter
            (fun w ->
              if w.alive then
                match w.running with
                | Some i when now -. w.started_at > deadline ->
                    deliver i (Timed_out deadline);
                    w.running <- None;
                    (try Unix.kill w.pid Sys.sigkill
                     with Unix.Unix_error _ -> ())
                | _ -> ())
            !workers
    in
    let handle_msg (w : worker) j =
      match obj_op j with
      | Some "start" ->
          Option.iter
            (fun i ->
              w.running <- Some i;
              w.started_at <- Unix.gettimeofday ();
              w.assigned <- List.filter (fun a -> a <> i) w.assigned)
            (obj_int "i" j)
      | Some "done" -> (
          match (obj_int "i" j, Json.member "r" j) with
          | Some i, Some r ->
              if w.running = Some i then w.running <- None;
              deliver i (Done r)
          | _ -> ())
      | Some "fail" -> (
          match obj_int "i" j with
          | Some i ->
              if w.running = Some i then w.running <- None;
              let m =
                Option.value ~default:"unknown exception"
                  (Option.bind (Json.member "msg" j) Json.to_str)
              in
              deliver i (Lost ("exception in worker: " ^ m))
          | None -> ())
      | Some "stolen" ->
          w.steal_pending <- false;
          let is =
            Option.value ~default:[]
              (Option.bind (Json.member "is" j) Json.to_list)
            |> List.filter_map Json.to_int
          in
          if is <> [] then incr steals;
          List.iter
            (fun i ->
              w.assigned <- List.filter (fun a -> a <> i) w.assigned;
              Queue.add i pending)
            is
      | Some "bye" | _ -> () (* bye only expected during shutdown *)
    in
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
    in
    let stopped = ref false in
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
        while !decided < n && (not !stopped) && !gave_up = None do
          if should_stop () then stopped := true
          else if
            match breaker with Some b -> Breaker.tripped b | None -> false
          then gave_up := Some "circuit breaker open"
          else begin
            (* revive dead slots whose backoff delay has elapsed (only
               if there is still queued work for them to pick up) *)
            let now = Unix.gettimeofday () in
            Array.iter
              (fun w ->
                match w.respawn_at with
                | Some t when (not w.alive) && now >= t ->
                    w.respawn_at <- None;
                    if not (Queue.is_empty pending) then respawn_now w
                | _ -> ())
              !workers;
            dispatch ();
            let rds =
              Array.to_list !workers
              |> List.filter_map (fun w -> if w.alive then Some w.rd else None)
            in
            if rds = [] then begin
              if Array.exists (fun w -> w.respawn_at <> None) !workers then
                (* every worker is gone but a respawn is scheduled: wait
                   instead of busy-looping *)
                Unix.sleepf 0.02
              else if !decided < n then
                gave_up := Some "worker respawn capacity exhausted"
            end
            else begin
              let ready =
                match Unix.select rds [] [] 0.25 with
                | r, _, _ -> r
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
              in
              List.iter
                (fun fd ->
                  match
                    Array.find_opt (fun w -> w.alive && w.rd = fd) !workers
                  with
                  | None -> ()
                  | Some w -> (
                      match Ipc.read fd with
                      | Ipc.Msg j -> handle_msg w j
                      | Ipc.Eof -> on_death w ~stopping:(should_stop ())
                      | exception Ipc.Protocol_error _ ->
                          on_death w ~stopping:(should_stop ())))
                ready
            end;
            check_watchdog ()
          end
        done;
        (* clean shutdown: collect epilogues from the survivors *)
        if (not !stopped) && !gave_up = None then
          Array.iter
            (fun w ->
              if w.alive then begin
                send_to w msg_quit;
                if w.alive then begin
                  let rec drain () =
                    match Ipc.read w.rd with
                    | Ipc.Eof -> ()
                    | Ipc.Msg j -> (
                        match (obj_op j, Json.member "e" j) with
                        | Some "bye", Some e ->
                            Option.iter (fun f -> f e) on_epilogue
                        | _ -> drain ())
                    | exception Ipc.Protocol_error _ -> ()
                  in
                  drain ();
                  ignore (reap w.pid);
                  close_quiet w.wr;
                  close_quiet w.rd;
                  w.alive <- false
                end
              end)
            !workers)
    ;
    ( outcomes,
      {
        forked = !forked;
        respawned = !respawned;
        steals = !steals;
        tasks_lost = !tasks_lost;
        timeouts = !timeouts;
        backoff_waits = !backoff_waits;
        backoff_wait_s = !backoff_wait_s;
        breaker_trips =
          (match breaker with Some b -> Breaker.trips b | None -> 0);
        gave_up = !gave_up;
      } )
  end
