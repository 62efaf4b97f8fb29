(* Campaign.Runner — fault-tolerant campaign runner: execute a set of targets through the
   whole limit-study pipeline (compile -> prepare -> profile -> Figure-2/3
   config ladder) with per-task isolation. One crashed, diverging, or
   budget-exhausted program must never abort the campaign or throw away the
   profiles already collected: every failure is captured into a structured
   error taxonomy, every finished task is checkpointed as a JSONL line, and
   [resume] skips work a previous (possibly killed) run already paid for.
   With [repro_dir] set, every errored task additionally drops a
   self-contained repro bundle (Repro.Bundle) for offline replay/shrink. *)

module Json = Util.Json

(* supervision/chaos counters; pool.timeouts is the same registry entry
   Exec.Pool bumps — interned here for heartbeat reads *)
let c_ckpt_drops = Obs.Telemetry.counter "campaign.checkpoint_drops"
let c_pool_timeouts = Obs.Telemetry.counter "pool.timeouts"

type error =
  | Compile_error of string
  | Verifier_error of string
  | Trap of Interp.Rvalue.trap_kind * string
  | Budget_exhausted of Interp.Rvalue.budget_kind
  | Crash of string
  | Worker_lost of string
      (* the forked worker executing the task died (signal, OOM kill, ...) *)
  | Task_timeout of string
      (* the pool's watchdog SIGKILLed the worker after the task outlived
         its per-task wall deadline *)

type executor = Serial | Forked of int

exception Interrupted

type score = { config : Loopa.Config.t; speedup : float; coverage_pct : float }

type status =
  | Completed of score list
  | Truncated of Interp.Rvalue.budget_kind * score list
      (* budget ran out mid-run: scores are over the executed prefix *)
  | Errored of error

type result = {
  target : string;
  status : status;
  attempts : int;
  clock : int; (* dynamic IR instructions the profiling run executed *)
  wall_s : float;
}

(* Clock taxonomy: [fuel]/[mem_limit]/[max_depth] are deterministic
   machine budgets; [wall_s] and [watchdog_s] are wall-clock
   (Unix.gettimeofday) — real elapsed time, not processor time.
   [wall_s] is cooperative (Interp.Machine polls its own deadline, so it
   cannot fire in a stalled process); [watchdog_s] is enforced from the
   parent by the pool's watchdog and works even on a SIGSTOP'd worker.
   Telemetry span durations, by contrast, stay on Sys.time (processor
   time) — see Obs.Telemetry. *)
type budgets = {
  fuel : int;
  mem_limit : int;
  max_depth : int;
  wall_s : float option; (* per-attempt wall-clock budget (cooperative) *)
  retries : int; (* extra attempts at reduced fuel after budget exhaustion *)
  watchdog_s : float option;
      (* per-task wall deadline enforced by the pool watchdog (Forked) *)
}

let default_budgets =
  {
    fuel = Loopa.Config.default_fuel;
    mem_limit = 1 lsl 26;
    max_depth = 10_000;
    wall_s = None;
    retries = 1;
    watchdog_s = None;
  }

(* a chaos plan containing stalls would hang a watchdog-less pool, so
   chaos runs get a deadline even when the caller did not set one *)
let chaos_default_watchdog_s = 5.0

(* deterministic: names the configured deadline, never the measured
   elapsed — identical across runs and across the Forked/Serial
   boundary *)
let timeout_cause deadline =
  Printf.sprintf "exceeded %gs per-task watchdog deadline" deadline

(* One campaign progress beat, emitted after every finished task. Counter
   deltas are since the previous beat (empty unless telemetry is enabled). *)
type heartbeat = {
  hb_done : int;
  hb_total : int;
  hb_elapsed_s : float;
  hb_tasks_per_s : float;
  hb_eta_s : float;
  hb_counters : (string * int) list;
  (* watchdog timeouts, cumulative over this campaign (from the
     pool.timeouts telemetry counter, so populated only while telemetry
     is enabled) — a run that keeps timing out shows it while it
     happens *)
  hb_timeouts : int;
}

let heartbeat_line hb =
  let base =
    Printf.sprintf "[%d/%d] %.2f tasks/s, eta %.1fs" hb.hb_done hb.hb_total
      hb.hb_tasks_per_s hb.hb_eta_s
  in
  let base =
    if hb.hb_timeouts > 0 then
      Printf.sprintf "%s | timeouts %d" base hb.hb_timeouts
    else base
  in
  (* keep the line readable: only the three largest counter movements *)
  let top =
    List.sort (fun (_, a) (_, b) -> compare (abs b) (abs a)) hb.hb_counters
    |> List.filteri (fun i _ -> i < 3)
  in
  match top with
  | [] -> base
  | l ->
      base ^ " | "
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s +%d" k v) l)

(* The same beat as a JSON object — the /status document the live
   observability endpoint serves. Full counter deltas, not the top-3 the
   log line keeps: a scraper filters for itself. *)
let heartbeat_json hb : Json.t =
  Json.Obj
    [
      ("done", Json.Int hb.hb_done);
      ("total", Json.Int hb.hb_total);
      ("elapsed_s", Json.Float hb.hb_elapsed_s);
      ("tasks_per_s", Json.Float hb.hb_tasks_per_s);
      ("eta_s", Json.Float hb.hb_eta_s);
      ("timeouts", Json.Int hb.hb_timeouts);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) hb.hb_counters) );
    ]

type summary = {
  results : result list; (* target order; resumed results included *)
  n_completed : int;
  n_truncated : int;
  n_errored : int;
  n_resumed : int; (* subset of the above restored from the checkpoint *)
  n_cached : int; (* subset served from the content-addressed result cache *)
  geomeans : (Loopa.Config.t * float) list;
      (* per config rung, over every task that produced scores *)
  failures : (string * int) list; (* error class -> count *)
}

(* ---- classification keys (stable: they name checkpoint fields) ---- *)

let trap_key = function
  | Interp.Rvalue.Div_by_zero -> "div-by-zero"
  | Interp.Rvalue.Out_of_bounds -> "out-of-bounds"
  | Interp.Rvalue.Negative_alloc -> "negative-alloc"

let trap_of_key = function
  | "div-by-zero" -> Some Interp.Rvalue.Div_by_zero
  | "out-of-bounds" -> Some Interp.Rvalue.Out_of_bounds
  | "negative-alloc" -> Some Interp.Rvalue.Negative_alloc
  | _ -> None

let budget_key = function
  | Interp.Rvalue.Fuel -> "fuel"
  | Interp.Rvalue.Call_depth -> "call-depth"
  | Interp.Rvalue.Heap -> "heap"
  | Interp.Rvalue.Wall -> "wall"

let budget_of_key = function
  | "fuel" -> Some Interp.Rvalue.Fuel
  | "call-depth" -> Some Interp.Rvalue.Call_depth
  | "heap" -> Some Interp.Rvalue.Heap
  | "wall" -> Some Interp.Rvalue.Wall
  | _ -> None

let error_class = function
  | Compile_error _ -> "compile-error"
  | Verifier_error _ -> "verifier-error"
  | Trap (k, _) -> "trap:" ^ trap_key k
  | Budget_exhausted k -> "budget:" ^ budget_key k
  | Crash _ -> "crash"
  | Worker_lost _ -> "worker-lost"
  | Task_timeout _ -> "task-timeout"

let error_to_string = function
  | Compile_error m -> "compile error: " ^ m
  | Verifier_error m -> "verifier error: " ^ m
  | Trap (k, m) -> Printf.sprintf "trap (%s): %s" (Interp.Rvalue.trap_kind_to_string k) m
  | Budget_exhausted k ->
      Printf.sprintf "%s budget exhausted before any useful work"
        (Interp.Rvalue.budget_kind_to_string k)
  | Crash m -> "crash: " ^ m
  | Worker_lost m -> "worker lost: " ^ m
  | Task_timeout m -> "task timeout: " ^ m

let status_class = function
  | Completed _ -> "completed"
  | Truncated _ -> "truncated"
  | Errored _ -> "error"

let status_to_string = function
  | Completed _ -> "completed"
  | Truncated (k, _) ->
      Printf.sprintf "truncated (%s)" (Interp.Rvalue.budget_kind_to_string k)
  | Errored e -> error_to_string e

(* ---- checkpoint codec ---- *)

let score_to_json s =
  Json.Obj
    [
      ("config", Json.String (Loopa.Config.name s.config));
      ("speedup", Json.Float s.speedup);
      ("coverage", Json.Float s.coverage_pct);
    ]

let error_to_json e =
  let base = [ ("class", Json.String (error_class e)) ] in
  Json.Obj
    (match e with
    | Compile_error m | Verifier_error m | Crash m | Worker_lost m
    | Task_timeout m ->
        base @ [ ("message", Json.String m) ]
    | Trap (_, m) -> base @ [ ("message", Json.String m) ]
    | Budget_exhausted _ -> base)

(* [telemetry] embeds a per-task span/counter snapshot
   (Obs.Export.snapshot_json) in the checkpoint line. The decoder ignores
   unknown fields, so lines with and without it mix freely under resume. *)
let result_to_json ?telemetry r =
  let scores s = ("scores", Json.List (List.map score_to_json s)) in
  Json.Obj
    ([
       ("target", Json.String r.target);
       ("status", Json.String (status_class r.status));
     ]
    @ (match r.status with
      | Completed s -> [ scores s ]
      | Truncated (k, s) -> [ ("budget", Json.String (budget_key k)); scores s ]
      | Errored e -> [ ("error", error_to_json e) ])
    @ [
        ("attempts", Json.Int r.attempts);
        ("clock", Json.Int r.clock);
        ("wall_s", Json.Float r.wall_s);
      ]
    @ match telemetry with Some t -> [ ("telemetry", t) ] | None -> [])

let score_of_json j =
  match
    ( Option.bind (Json.member "config" j) Json.to_str,
      Option.bind (Json.member "speedup" j) Json.to_float,
      Option.bind (Json.member "coverage" j) Json.to_float )
  with
  | Some c, Some s, Some cov -> (
      match Loopa.Config.of_string c with
      | config -> Some { config; speedup = s; coverage_pct = cov }
      | exception Loopa.Config.Bad_config _ -> None)
  | _ -> None

let error_of_json j =
  let msg =
    Option.value ~default:"" (Option.bind (Json.member "message" j) Json.to_str)
  in
  match Option.bind (Json.member "class" j) Json.to_str with
  | Some "compile-error" -> Some (Compile_error msg)
  | Some "verifier-error" -> Some (Verifier_error msg)
  | Some "crash" -> Some (Crash msg)
  | Some "worker-lost" -> Some (Worker_lost msg)
  | Some "task-timeout" -> Some (Task_timeout msg)
  | Some cls when String.length cls > 5 && String.sub cls 0 5 = "trap:" ->
      Option.map
        (fun k -> Trap (k, msg))
        (trap_of_key (String.sub cls 5 (String.length cls - 5)))
  | Some cls when String.length cls > 7 && String.sub cls 0 7 = "budget:" ->
      Option.map
        (fun k -> Budget_exhausted k)
        (budget_of_key (String.sub cls 7 (String.length cls - 7)))
  | _ -> None

let result_of_json j : (result, string) Stdlib.result =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let scores () =
    match Option.bind (Json.member "scores" j) Json.to_list with
    | Some l -> Ok (List.filter_map score_of_json l)
    | None -> Error "missing scores"
  in
  let ( let* ) = Result.bind in
  let* target = Option.to_result ~none:"missing target" (str "target") in
  let* status =
    match str "status" with
    | Some "completed" ->
        let* s = scores () in
        Ok (Completed s)
    | Some "truncated" ->
        let* s = scores () in
        let* k =
          Option.to_result ~none:"bad budget kind"
            (Option.bind (str "budget") budget_of_key)
        in
        Ok (Truncated (k, s))
    | Some "error" ->
        Option.to_result ~none:"bad error"
          (Option.map
             (fun e -> Errored e)
             (Option.bind (Json.member "error" j) error_of_json))
    | _ -> Error "missing status"
  in
  let int_field k d =
    Option.value ~default:d (Option.bind (Json.member k j) Json.to_int)
  in
  let wall_s =
    Option.value ~default:0.0 (Option.bind (Json.member "wall_s" j) Json.to_float)
  in
  Ok { target; status; attempts = int_field "attempts" 1; clock = int_field "clock" 0; wall_s }

(* Load the per-target results of an existing checkpoint for resume;
   damage is never fatal. Only newline-terminated lines count: whatever
   follows the last newline is a torn tail (the signature of a hard kill
   mid-write) and is dropped even when it parses, and cut from the file so
   appended lines start on a whole-line boundary. Instead of per-line log
   spam, one salvage summary is reported: lines kept, malformed lines
   skipped, and whether a torn tail was dropped, so a resume after a crash
   is auditable at a glance. *)
let load_checkpoint ~log path : (string, result) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let raw = In_channel.with_open_bin path In_channel.input_all in
    let whole =
      match String.rindex_opt raw '\n' with Some i -> i + 1 | None -> 0
    in
    let torn = whole < String.length raw in
    (if torn then try Unix.truncate path whole with Unix.Unix_error _ -> ());
    let kept = ref 0 and malformed = ref 0 in
    List.iter
      (fun line ->
        if String.trim line <> "" then
          match Option.bind (Result.to_option (Json.of_string line))
                  (fun j -> Result.to_option (result_of_json j))
          with
          | Some r ->
              incr kept;
              Hashtbl.replace tbl r.target r
          | None -> incr malformed)
      (String.split_on_char '\n' (String.sub raw 0 whole));
    if !malformed > 0 || torn then
      log
        (Printf.sprintf "checkpoint %s salvage: %d line(s) kept%s%s" path !kept
           (if !malformed > 0 then
              Printf.sprintf ", %d malformed skipped" !malformed
            else "")
           (if torn then ", torn tail dropped" else ""))
    else log (Printf.sprintf "checkpoint %s: %d line(s) kept" path !kept)
  end;
  tbl

(* ---- one isolated task ---- *)

let eval_scores configs (profile : Loopa.Profile.profile) : score list =
  List.filter_map
    (fun config ->
      match Loopa.Config.validate config with
      | Error _ -> None
      | Ok _ ->
          let r = Loopa.Evaluate.evaluate profile config in
          Some
            {
              config;
              speedup = r.Loopa.Evaluate.speedup;
              coverage_pct = r.Loopa.Evaluate.coverage_pct;
            })
    configs

(* Map an Execute-stage classified failure back onto the checkpoint
   taxonomy: traps keep their kind (parsed from the fingerprint class,
   which [Driver.trap_failure] built from [Driver.trap_key]); everything
   else is a crash whose message the failure already carries. *)
let error_of_exec_failure (f : Loopa.Driver.failure) : error =
  let cls = Loopa.Driver.fingerprint_class f.Loopa.Driver.fingerprint in
  let trap =
    List.find_opt
      (fun k -> cls = "trap:" ^ Loopa.Driver.trap_key k)
      [
        Interp.Rvalue.Div_by_zero;
        Interp.Rvalue.Out_of_bounds;
        Interp.Rvalue.Negative_alloc;
      ]
  in
  match trap with
  | Some k -> Trap (k, f.Loopa.Driver.message)
  | None -> Crash f.Loopa.Driver.message

(* Run the whole pipeline once under the given fuel. Every exception is
   captured here: nothing a single program does may escape into the
   campaign loop. Alongside the taxonomy status, an errored attempt also
   yields the classified {!Loopa.Driver.failure} — built with the same
   constructors Repro.Pipeline uses, so a bundle stamped with this
   fingerprint replays to an identical one. *)
let attempt ?hotspot ~budgets ~configs ~faults ~fuel src :
    status * int * Loopa.Driver.failure option =
  let errored st f = (Errored st, 0, Some f) in
  match Frontend.compile src with
  | Error e ->
      errored
        (Compile_error (Frontend.error_to_string e))
        (Loopa.Driver.compile_failure e)
  | exception Ir.Verifier.Invalid_ir msg ->
      errored (Crash (Printexc.to_string (Ir.Verifier.Invalid_ir msg)))
        (Loopa.Driver.verifier_failure ~stage:Loopa.Driver.Verify msg)
  | exception e ->
      errored (Crash (Printexc.to_string e))
        (Loopa.Driver.crash_failure ~stage:Loopa.Driver.Compile e)
  | Ok m -> (
      match Loopa.Driver.prepare m with
      | exception Ir.Verifier.Invalid_ir msg ->
          errored (Verifier_error msg)
            (Loopa.Driver.verifier_failure ~stage:Loopa.Driver.Prepare msg)
      | exception Stack_overflow ->
          errored
            (Crash "stack overflow during preparation")
            (Loopa.Driver.crash_failure ~stage:Loopa.Driver.Prepare Stack_overflow)
      | exception e ->
          errored (Crash (Printexc.to_string e))
            (Loopa.Driver.crash_failure ~stage:Loopa.Driver.Prepare e)
      | ms -> (
          (* wall_s is a wall-clock budget: the deadline stamp must be on
             the same clock Interp.Machine polls (Unix.gettimeofday) *)
          let deadline =
            Option.map (fun w -> Unix.gettimeofday () +. w) budgets.wall_s
          in
          match
            Loopa.Driver.profile_result ~fuel ~mem_limit:budgets.mem_limit
              ~max_depth:budgets.max_depth ?deadline ~faults ?hotspot ms
          with
          | exception e ->
              errored (Crash (Printexc.to_string e))
                (Loopa.Driver.crash_failure ~stage:Loopa.Driver.Execute e)
          | Error f -> (Errored (error_of_exec_failure f), 0, Some f)
          | Ok profile -> (
              let clock = profile.Loopa.Profile.total_cost in
              match eval_scores configs profile with
              | exception e ->
                  ( Errored (Crash ("evaluation: " ^ Printexc.to_string e)),
                    clock,
                    Some (Loopa.Driver.crash_failure ~stage:Loopa.Driver.Evaluate e)
                  )
              | scores ->
                  if not profile.Loopa.Profile.truncated then
                    (Completed scores, clock, None)
                  else
                    let kind =
                      match profile.Loopa.Profile.outcome.Interp.Machine.stop with
                      | Interp.Machine.Truncated k -> k
                      | Interp.Machine.Completed -> Interp.Rvalue.Fuel
                    in
                    (* a prefix with zero executed instructions carries no
                       information: that is genuine budget exhaustion *)
                    if clock = 0 then
                      ( Errored (Budget_exhausted kind),
                        0,
                        Some (Loopa.Driver.budget_failure kind) )
                    else (Truncated (kind, scores), clock, None))))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let sanitize_name name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_') as c -> c | _ -> '_')
    name

(* The classified failure of the attempt whose status the task kept, paired
   with the fuel that attempt ran under — exactly what a repro bundle must
   record to replay deterministically. *)
let run_task ?prof_dir ~budgets ~configs ~faults target src :
    result * (Loopa.Driver.failure * int) option =
  let t0 = Unix.gettimeofday () in
  (* the hotspot profiler rides the full-fuel attempt only: the retry runs
     at reduced fuel, and a flamegraph of the longest executed prefix is
     the informative one *)
  let hotspot = Option.map (fun _ -> Prof.Hotspot.create ()) prof_dir in
  let st1, clock1, f1 =
    attempt ?hotspot ~budgets ~configs ~faults ~fuel:budgets.fuel src
  in
  (match (prof_dir, hotspot) with
  | Some dir, Some h -> (
      try
        mkdir_p dir;
        ignore
          (Prof.Hotspot.write_files h
             ~base:(Filename.concat dir (sanitize_name target))
             ~name:target)
      with Sys_error _ | Unix.Unix_error _ -> ())
  | _ -> ());
  let budget_exhausted =
    match st1 with
    | Truncated _ | Errored (Budget_exhausted _) -> true
    | Completed _ | Errored _ -> false
  in
  let at_full = Option.map (fun f -> (f, budgets.fuel)) f1 in
  let status, clock, attempts, failure =
    if budget_exhausted && budgets.retries > 0 then
      (* One retry at reduced fuel: if the first attempt died on a
         nondeterministic budget (wall clock) the program may genuinely fit
         the smaller deterministic budget and complete; otherwise keep
         whichever attempt executed the longer prefix. *)
      let reduced = max 1_000 (budgets.fuel / 4) in
      match attempt ~budgets ~configs ~faults ~fuel:reduced src with
      | (Completed _ as st), clock, f ->
          (st, clock, 2, Option.map (fun x -> (x, reduced)) f)
      | st, clock, f when clock > clock1 ->
          (st, clock, 2, Option.map (fun x -> (x, reduced)) f)
      | _ -> (st1, clock1, 2, at_full)
    else (st1, clock1, 1, at_full)
  in
  ({ target; status; attempts; clock; wall_s = Unix.gettimeofday () -. t0 }, failure)

(* ---- the campaign ---- *)

let geomeans_of configs results =
  List.filter_map
    (fun config ->
      let speedups =
        List.filter_map
          (fun r ->
            match r.status with
            | Completed scores | Truncated (_, scores) ->
                List.find_map
                  (fun s -> if s.config = config then Some s.speedup else None)
                  scores
            | Errored _ -> None)
          results
      in
      match speedups with
      | [] -> None
      | l -> Some (config, Report.Stats.geomean l))
    configs

let failure_breakdown results =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.status with
      | Errored e ->
          let k = error_class e in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | Completed _ | Truncated _ -> ())
    results;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- repro-bundle emission ---- *)

(* Drop a self-contained bundle for an errored task: the source, the
   budgets and fault plan of the exact attempt that failed, and its
   fingerprint. [repro replay] on the file re-runs this deterministically. *)
let emit_bundle ~dir ~budgets ~configs ~faults target src
    ((f : Loopa.Driver.failure), fuel) : string =
  mkdir_p dir;
  let b =
    Repro.Bundle.make ~target ~source:src ~stage:f.Loopa.Driver.stage
      ~fingerprint:f.Loopa.Driver.fingerprint ~message:f.Loopa.Driver.message
      ~configs ~fuel ~mem_limit:budgets.mem_limit ~max_depth:budgets.max_depth
      ~faults ()
  in
  let path = Filename.concat dir (sanitize_name target ^ ".repro.json") in
  Repro.Bundle.save path b;
  path

(* ---- one task path ---- *)

(* The whole isolated task, and the only body a task runs through, in a
   forked worker or in the parent: the test hook, the ["campaign.task"]
   span around {!run_task}, and — when telemetry is on — the task's raw
   spans and counter deltas. *)
let traced_task ?prof_dir ~on_task_start ~budgets ~configs ~faults target src =
  on_task_start target;
  let tmark = Obs.Telemetry.mark () in
  let r, failure =
    Obs.Telemetry.with_span "campaign.task"
      ~attrs:[ ("target", target) ]
      (fun () -> run_task ?prof_dir ~budgets ~configs ~faults target src)
  in
  let tele =
    if Obs.Telemetry.enabled () then Some (Obs.Telemetry.since tmark) else None
  in
  (r, failure, tele)

(* An error recorded without a result from the task itself: a lost or
   timed-out worker, or a scheduled chaos fault realized in the parent. *)
let errored_result target e =
  { target; status = Errored e; attempts = 1; clock = 0; wall_s = 0.0 }

(* ---- worker wire codec (Forked executor) ----

   A worker ships back its full task outcome in one frame: the checkpoint
   result object ("r", written by the parent byte-for-byte so parallel
   checkpoints match serial ones), the classified failure for repro-bundle
   emission ("f"), and — when telemetry is on — the raw spans, counter
   deltas and histograms of the task ("spans"/"ctr"/"hist") for the
   parent to absorb. *)

let failure_to_wire ((f : Loopa.Driver.failure), fuel) =
  Json.Obj
    [
      ("stage", Json.String (Loopa.Driver.stage_name f.Loopa.Driver.stage));
      ("fp", Json.String f.Loopa.Driver.fingerprint);
      ("msg", Json.String f.Loopa.Driver.message);
      ("fuel", Json.Int fuel);
    ]

let failure_of_wire j : (Loopa.Driver.failure * int) option =
  match
    ( Option.bind
        (Option.bind (Json.member "stage" j) Json.to_str)
        Loopa.Driver.stage_of_name,
      Option.bind (Json.member "fp" j) Json.to_str,
      Option.bind (Json.member "msg" j) Json.to_str )
  with
  | Some stage, Some fingerprint, Some message ->
      Some
        ( { Loopa.Driver.stage; fingerprint; message },
          Option.value ~default:0
            (Option.bind (Json.member "fuel" j) Json.to_int) )
  | _ -> None

let task_to_wire (r, failure, tele) =
  let tele =
    match tele with
    | Some (spans, ctrs) ->
        [
          ("spans", Json.List (List.map Obs.Export.span_to_json spans));
          ("ctr", Json.Obj (List.map (fun (c, v) -> (c, Json.Int v)) ctrs));
          ("hist", Obs.Telemetry.wire_histograms ());
        ]
    | None -> []
  in
  Json.Obj
    ([ ("r", result_to_json r) ]
    @ (match failure with
      | Some fw -> [ ("f", failure_to_wire fw) ]
      | None -> [])
    @ tele)

(* Splice a worker's task telemetry into the parent registry; returns the
   spans and counter deltas for the task's checkpoint line. *)
let absorb_wire wire =
  let spans =
    match Json.member "spans" wire with
    | Some (Json.List l) -> List.filter_map Obs.Export.span_of_json l
    | _ -> []
  in
  let counters =
    match Json.member "ctr" wire with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (c, v) -> Option.map (fun i -> (c, i)) (Json.to_int v))
          kvs
    | _ -> []
  in
  Obs.Telemetry.absorb ~spans ~counters;
  Option.iter Obs.Telemetry.absorb_histograms (Json.member "hist" wire);
  (spans, counters)

(* One checkpoint line, built whole and written with a single buffered
   [output_string] + flush: a crash or interrupt between fragments can
   never leave an unparseable JSONL tail for --resume to trip on. *)
let write_line oc j =
  output_string oc (Json.to_string j ^ "\n");
  flush oc

(* What the parent keeps about a decided task until its turn in the
   checkpoint comes up. *)
type entry = {
  er : result;
  eline : Json.t; (* the full checkpoint line, telemetry included *)
  efail : (Loopa.Driver.failure * int) option;
}

(* [line] is the result's checkpoint object — a worker's is kept verbatim,
   so parallel checkpoints match serial ones — and [tele] rides along as
   the task's telemetry snapshot. *)
let entry ~tele line er efail =
  let eline =
    match (line, tele) with
    | Json.Obj fields, Some (spans, counters) ->
        Json.Obj
          (fields
          @ [ ("telemetry", Obs.Export.snapshot_json ~spans ~counters) ])
    | j, _ -> j
  in
  { er; eline; efail }

let run ?(budgets = default_budgets) ?(configs = Loopa.Config.figure_ladder)
    ?checkpoint ?(resume = false) ?(faults_of = fun _ -> []) ?repro_dir
    ?prof_dir ?(log = fun _ -> ()) ?heartbeat ?(executor = Serial)
    ?(on_task_start = fun (_ : string) -> ()) ?chaos ?cache_find ?cache_store
    (targets : (string * string) list) : summary =
  let done_before =
    match checkpoint with
    | Some path when resume -> load_checkpoint ~log path
    | Some _ | None -> Hashtbl.create 1
  in
  let oc =
    Option.map
      (fun path ->
        (* append under --resume so completed work is never discarded
           (loading cut any torn tail); otherwise start the checkpoint
           over *)
        if resume then
          open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path
        else open_out path)
      checkpoint
  in
  (* A SIGINT/SIGTERM only raises a flag; the runner polls it at task
     granularity, flushes what is already decided, and raises
     {!Interrupted} — the checkpoint is always left whole-line-parseable. *)
  let interrupted = ref false in
  let note _ = interrupted := true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle note) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle note) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.signal Sys.sigint old_int);
      ignore (Sys.signal Sys.sigterm old_term);
      (* crash-safe finalization: force the checkpoint to stable storage
         before closing — campaign end, interrupt-flush, and exception
         unwinds all funnel through here *)
      Option.iter
        (fun oc ->
          flush oc;
          try Unix.fsync (Unix.descr_of_out_channel oc)
          with Unix.Unix_error _ | Sys_error _ -> ())
        oc;
      Option.iter close_out oc)
    (fun () ->
      let n_resumed = ref 0 in
      let t0 = Unix.gettimeofday () in
      let total = List.length targets in
      let n_done = ref 0 in
      let beat_mark = ref (Obs.Telemetry.mark ()) in
      (* pool.timeouts is process-cumulative; baseline it so the
         heartbeat reports this campaign's timeouts only *)
      let base_timeouts = Obs.Telemetry.value c_pool_timeouts in
      let beat () =
        incr n_done;
        match heartbeat with
        | None -> ()
        | Some emit ->
            let elapsed = Unix.gettimeofday () -. t0 in
            let rate = if elapsed > 0.0 then float_of_int !n_done /. elapsed else 0.0 in
            let _, deltas = Obs.Telemetry.since !beat_mark in
            beat_mark := Obs.Telemetry.mark ();
            emit
              {
                hb_done = !n_done;
                hb_total = total;
                hb_elapsed_s = elapsed;
                hb_tasks_per_s = rate;
                hb_eta_s =
                  (if rate > 0.0 then float_of_int (total - !n_done) /. rate
                   else 0.0);
                hb_counters = deltas;
                hb_timeouts = Obs.Telemetry.value c_pool_timeouts - base_timeouts;
              }
      in
      (* a chaos plan with Stall_self faults hangs a watchdog-less pool,
         so chaos runs always get a deadline *)
      let watchdog_s =
        match budgets.watchdog_s with
        | Some _ as w -> w
        | None ->
            if Option.is_some chaos then Some chaos_default_watchdog_s else None
      in
      (* Chaos injection point for the checkpoint stream: the k-th write
         attempt may fail with a simulated EIO/ENOSPC. The response is
         supervision, not death: drop the line, log it, count it — the
         task's result stays in the summary and --resume re-runs it. *)
      let write_attempt = ref 0 in
      let write_line_checked oc j =
        let k = !write_attempt in
        incr write_attempt;
        match Option.bind chaos (fun p -> Exec.Chaos.ckpt_fault p k) with
        | Some f ->
            Obs.Telemetry.incr c_ckpt_drops;
            log
              (Printf.sprintf
                 "checkpoint write #%d failed (injected %s): line dropped, \
                  resume will re-run its task"
                 k
                 (Exec.Chaos.ckpt_fault_name f))
        | None -> write_line oc j
      in
      (* A scheduled lethal chaos fault, realized without forking: when a
         task with a planned kill/stall/torn/corrupt runs in the parent,
         record the error the pool would have delivered — same class,
         byte-identical cause — so Serial and Forked runs write the same
         checkpoint. [k] is the task's index in the fresh (non-resumed)
         task order, the pool's task array. *)
      let simulated_error k =
        match Option.bind chaos (fun p -> Exec.Chaos.task_fault p k) with
        | None -> None
        | Some Exec.Chaos.Stall_self ->
            let d = Option.value ~default:chaos_default_watchdog_s watchdog_s in
            Some (Task_timeout (timeout_cause d))
        | Some fault ->
            Option.map
              (fun cause -> Worker_lost cause)
              (Exec.Chaos.simulated_lost_cause fault)
      in
      let emit_repro target src faults failure =
        match (repro_dir, failure) with
        | Some dir, Some f -> (
            match emit_bundle ~dir ~budgets ~configs ~faults target src f with
            | path -> log (Printf.sprintf "%-24s repro bundle: %s" "" path)
            | exception Sys_error m ->
                log (Printf.sprintf "%-24s repro bundle failed: %s" "" m))
        | _ -> ()
      in
      (* Cache prefetch: consult the content-addressed result cache for
         every fresh (non-resumed) target — in target order, before any
         execution — so hits land in the checkpoint exactly where a
         fresh run would have written them. A hit behaves like a resumed
         result from here on: it is never executed, and it does not
         consume an index in the fresh task order chaos plans key on.
         Only the find is delegated; a throwing cache is treated as a
         miss because caching must never be able to fail a campaign. *)
      let cached_tbl : (string, result) Hashtbl.t = Hashtbl.create 8 in
      let n_cached = ref 0 in
      (match cache_find with
      | None -> ()
      | Some find ->
          List.iter
            (fun (target, _) ->
              if not (Hashtbl.mem done_before target) then
                match (try find target with _ -> None) with
                | None -> ()
                | Some (r : result) ->
                    Hashtbl.replace cached_tbl target r;
                    incr n_cached;
                    Option.iter
                      (fun oc -> write_line_checked oc (result_to_json r))
                      oc;
                    log
                      (Printf.sprintf "%-24s cached: %s" target
                         (status_to_string r.status));
                    beat ())
            targets);
      let maybe_store (r : result) =
        match cache_store with
        | None -> ()
        | Some store -> (
            match r.status with
            | Completed _ | Truncated _ -> (
                try store r.target r
                with _ -> log (Printf.sprintf "%-24s cache store failed" r.target))
            | Errored _ -> ())
      in
      (* resumed results surface first (they cost nothing), then the
         fresh targets run in target order *)
      List.iter
        (fun (target, _) ->
          match Hashtbl.find_opt done_before target with
          | Some r ->
              incr n_resumed;
              log
                (Printf.sprintf "%-24s resumed: %s" target
                   (status_to_string r.status));
              beat ()
          | None -> ())
        targets;
      let fresh =
        Array.of_list
          (List.filter
             (fun (t, _) ->
               not (Hashtbl.mem done_before t || Hashtbl.mem cached_tbl t))
             targets)
      in
      let n = Array.length fresh in
      let entries : entry option array = Array.make n None in
      (* Whichever process decided a task, its checkpoint line, status
         line and repro bundle come out in fresh task order: every
         decision writes the contiguous decided prefix. *)
      let next = ref 0 in
      let rec write_ready () =
        if !next < n then
          match entries.(!next) with
          | None -> ()
          | Some e ->
              let target, src = fresh.(!next) in
              incr next;
              Option.iter (fun oc -> write_line_checked oc e.eline) oc;
              log
                (Printf.sprintf "%-24s %s" target
                   (status_to_string e.er.status));
              (match e.er.status with
              | Errored _ -> emit_repro target src (faults_of target) e.efail
              | Completed _ | Truncated _ -> ());
              write_ready ()
      in
      let decide k e =
        entries.(k) <- Some e;
        write_ready ();
        maybe_store e.er;
        beat ()
      in
      (* salvage every decided-but-unwritten entry (ascending task
         order): resume can then skip it even though the strict
         checkpoint order was cut short *)
      let interrupt () =
        for k = !next to n - 1 do
          Option.iter
            (fun e -> Option.iter (fun oc -> write_line_checked oc e.eline) oc)
            entries.(k)
        done;
        raise Interrupted
      in
      (match executor with
      | Forked jobs when jobs > 1 ->
          (* Workers inherit [fresh] across the fork, so a task's payload
             is just its index. The registry is reset first, so the reply
             carries this task's telemetry alone, and a worker that dies
             later loses nothing already delivered. *)
          let work payload =
            Obs.Telemetry.reset ();
            let target, src =
              fresh.(Option.value ~default:0 (Json.to_int payload))
            in
            task_to_wire
              (traced_task ?prof_dir ~on_task_start ~budgets ~configs
                 ~faults:(faults_of target) target src)
          in
          let on_complete k outcome =
            let target, _ = fresh.(k) in
            let failed e =
              let r = errored_result target e in
              entry ~tele:None (result_to_json r) r None
            in
            decide k
              (match outcome with
              | Exec.Pool.Lost cause -> failed (Worker_lost cause)
              | Exec.Pool.Timed_out d -> failed (Task_timeout (timeout_cause d))
              | Exec.Pool.Done wire -> (
                  let spans, counters = absorb_wire wire in
                  let line =
                    Option.value ~default:Json.Null (Json.member "r" wire)
                  in
                  match result_of_json line with
                  | Ok r ->
                      let tele =
                        if Obs.Telemetry.enabled () then Some (spans, counters)
                        else None
                      in
                      entry ~tele line r
                        (Option.bind (Json.member "f" wire) failure_of_wire)
                  | Error m ->
                      failed (Worker_lost ("undecodable worker result: " ^ m))))
          in
          (* the pool decides every task unless the run was interrupted *)
          ignore
            (Exec.Pool.run ~jobs ~on_complete
               ~should_stop:(fun () -> !interrupted)
               ?task_deadline_s:watchdog_s ?chaos ~work
               (Array.init n (fun i -> Json.Int i)))
      | Serial | Forked _ ->
          (* every task runs here, in the parent and in task order *)
          Array.iteri
            (fun k (target, src) ->
              if !interrupted then interrupt ();
              let r, failure, tele =
                match simulated_error k with
                | Some e -> (errored_result target e, None, None)
                | None ->
                    traced_task ?prof_dir ~on_task_start ~budgets ~configs
                      ~faults:(faults_of target) target src
              in
              decide k (entry ~tele (result_to_json r) r failure))
            fresh);
      if !interrupted then interrupt ();
      let cursor = ref 0 in
      let results =
        List.map
          (fun (target, _) ->
            match Hashtbl.find_opt done_before target with
            | Some r -> r
            | None when Hashtbl.mem cached_tbl target ->
                Hashtbl.find cached_tbl target
            | None -> (
                let k = !cursor in
                incr cursor;
                match entries.(k) with
                | Some e -> e.er
                | None -> assert false (* every task was decided above *)))
          targets
      in
      let count p = List.length (List.filter p results) in
      {
        results;
        n_completed = count (fun r -> match r.status with Completed _ -> true | _ -> false);
        n_truncated = count (fun r -> match r.status with Truncated _ -> true | _ -> false);
        n_errored = count (fun r -> match r.status with Errored _ -> true | _ -> false);
        n_resumed = !n_resumed;
        n_cached = !n_cached;
        geomeans = geomeans_of configs results;
        failures = failure_breakdown results;
      })

let summary_to_json (s : summary) =
  Json.Obj
    [
      ("completed", Json.Int s.n_completed);
      ("truncated", Json.Int s.n_truncated);
      ("errored", Json.Int s.n_errored);
      ("resumed", Json.Int s.n_resumed);
      ("cached", Json.Int s.n_cached);
      ( "geomeans",
        Json.List
          (List.map
             (fun (c, g) ->
               Json.Obj
                 [
                   ("config", Json.String (Loopa.Config.name c));
                   ("geomean_speedup", Json.Float g);
                 ])
             s.geomeans) );
      ( "failures",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.failures) );
      ("results", Json.List (List.map result_to_json s.results));
    ]
