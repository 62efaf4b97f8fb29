(* Benchmark of the limit-study pipeline. See README.md in this directory.

   perf.exe --workload W --seed N --seconds S --trace 0|1 [--scale smoke]
     runs workload W (or all four) and prints every metric as
     "name value unit", then one JSON object as the last line. Each
     workload runs in fresh child processes of this executable: set-up is
     timed from spawning a child to its first timed task, several times.
   perf.exe --agree A.json B.json
     compares two sets of results against the bounds in BENCHMARK.json.
   perf.exe --make-golden
     prints the golden file the output oracle checks against. *)

let now = Unix.gettimeofday

(* setup_s is the median over the children that only set up and the one
   that also runs: at least [setup_min] of them, and more while their
   set-up has taken less than [setup_budget_s] in all, up to [setup_max]. *)
let setup_min = 5

let setup_max = 31

let setup_budget_s = 0.5

let json_of_metrics metrics =
  Util.Json.Obj
    (List.map
       (fun (name, value, unit) ->
         ( name,
           Util.Json.Obj
             [ ("value", Util.Json.Float value); ("unit", Util.Json.String unit) ] ))
       metrics)

(* ---- child process ---- *)

let outcome_to_json (o : Work.outcome) =
  Util.Json.Obj
    [
      ("t_ready", Util.Json.Float o.Work.t_ready);
      ("wall", Util.Json.Float o.Work.wall);
      ("attempted", Util.Json.Int o.Work.attempted);
      ("failed", Util.Json.Int o.Work.failed);
      ("errors", Util.Json.List (List.map (fun e -> Util.Json.String e) o.Work.errors));
      ( "metrics",
        Util.Json.List
          (List.map
             (fun (n, v, u) ->
               Util.Json.List [ Util.Json.String n; Util.Json.Float v; Util.Json.String u ])
             o.Work.metrics) );
    ]

let outcome_of_json j =
  let get conv key = Option.bind (Util.Json.member key j) conv in
  let metric = function
    | Util.Json.List [ Util.Json.String n; v; Util.Json.String u ] ->
        Option.map (fun v -> (n, v, u)) (Util.Json.to_float v)
    | _ -> None
  in
  match
    ( get Util.Json.to_float "t_ready",
      get Util.Json.to_float "wall",
      get Util.Json.to_int "attempted",
      get Util.Json.to_int "failed",
      get Util.Json.to_list "errors",
      get Util.Json.to_list "metrics" )
  with
  | Some t_ready, Some wall, Some attempted, Some failed, Some errors, Some metrics
    ->
      Some
        {
          Work.t_ready;
          wall;
          attempted;
          failed;
          errors = List.filter_map Util.Json.to_str errors;
          metrics = List.filter_map metric metrics;
        }
  | _ -> None

let result_file dir = Filename.concat dir "result.json"

let child cfg ~phase dir =
  let o = Work.run cfg ~phase ~dir in
  Out_channel.with_open_bin (result_file dir) (fun oc ->
      output_string oc (Util.Json.to_string (outcome_to_json o)))

(* ---- parent process ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Spawn one workload process; [Ok (setup seconds, outcome)]. Its stdout
   goes to our stderr, so the last line of our stdout stays the result. *)
let spawn (cfg : Work.cfg) phase dir =
  mkdir_p dir;
  let args =
    [
      "--child"; dir;
      "--phase"; phase;
      "--workload"; cfg.Work.workload;
      "--seed"; string_of_int cfg.Work.seed;
      "--seconds"; Printf.sprintf "%.17g" cfg.Work.seconds;
      "--trace"; (if cfg.Work.trace then "1" else "0");
      "--data"; cfg.Work.data;
    ]
    @ if cfg.Work.smoke then [ "--scale"; "smoke" ] else []
  in
  let exe = Sys.executable_name in
  let t_spawn = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr
      Unix.stderr
  in
  match waitpid pid with
  | Unix.WEXITED 0 -> (
      match
        Result.to_option
          (Util.Json.of_string
             (In_channel.with_open_bin (result_file dir) In_channel.input_all))
      with
      | exception Sys_error e -> Error e
      | None -> Error "unreadable result"
      | Some j -> (
          match outcome_of_json j with
          | Some o -> Ok (o.Work.t_ready -. t_spawn, o)
          | None -> Error "malformed result"))
  | Unix.WEXITED n -> Error (Printf.sprintf "exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "killed by signal %d" n)

let median xs = Work.percentile xs 0.5

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Work.metric list;
}

let result_to_json r =
  Util.Json.Obj
    [
      ("correct", Util.Json.Bool r.correct);
      ("attempted", Util.Json.Int r.attempted);
      ("failed", Util.Json.Int r.failed);
      ("metrics", json_of_metrics r.metrics);
    ]

(* Run one workload. Untraced: setup-only children, then the measuring
   one. Traced: an untraced child for the baseline wall and the per-layer
   metrics only it gives, then the traced child. [Error] when a child could
   not run to completion. *)
let run_workload (cfg : Work.cfg) =
  let trace = cfg.Work.trace in
  let root =
    Filename.concat ".perf-run"
      (Printf.sprintf "%s-%d" cfg.Work.workload (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let spawn_at i phase =
    Result.map_error
      (Printf.sprintf "%s: workload process %s" cfg.Work.workload)
      (spawn cfg phase (Filename.concat root (Printf.sprintf "child%d" i)))
  in
  let rec setups acc spent =
    let n = List.length acc + 1 in
    if n >= setup_max || (n >= setup_min && spent >= setup_budget_s) then
      Ok (List.rev acc)
    else
      Result.bind (spawn_at n "setup") (fun ((s, _) as r) ->
          setups (r :: acc) (spent +. s))
  in
  let runs =
    if trace then
      Result.bind (spawn_at 0 "untraced") (fun u ->
          Result.map (fun t -> [ u; t ]) (spawn_at 1 "traced"))
    else
      Result.bind (setups [] 0.) (fun ss ->
          Result.map (fun u -> ss @ [ u ]) (spawn_at 0 "untraced"))
  in
  Result.map
    (fun runs ->
      let outcomes = List.map snd runs in
      List.iter (fun o -> List.iter prerr_endline o.Work.errors) outcomes;
      let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
      let failed = sum (fun o -> o.Work.failed) in
      let untraced_layer (name, _, _) =
        List.mem name Work.untraced_layer_metrics
      in
      let metrics =
        match outcomes with
        | [ u; t ] when trace ->
            t.Work.metrics
            @ List.filter untraced_layer u.Work.metrics
            @ [ ("trace.overhead_frac", Work.ratio t.Work.wall u.Work.wall -. 1., "ratio") ]
        | _ ->
            let u = List.nth outcomes (List.length outcomes - 1) in
            List.filter (fun m -> not (untraced_layer m)) u.Work.metrics
            @ [ ("setup_s", median (List.map fst runs), "s") ]
      in
      { correct = failed = 0; attempted = sum (fun o -> o.Work.attempted); failed; metrics })
    runs

let print_metrics ?(prefix = "") r =
  List.iter
    (fun (name, value, unit) -> Printf.printf "%s%s %.17g %s\n" prefix name value unit)
    r.metrics

let run (cfg : Work.cfg) =
  if cfg.Work.workload = "all" then begin
    let results =
      List.map
        (fun w -> (w, run_workload { cfg with Work.workload = w }))
        Work.names
    in
    match List.find_opt (fun (_, r) -> Result.is_error r) results with
    | Some (_, Error e) ->
        prerr_endline e;
        exit 1
    | _ ->
        let ok = List.map (fun (w, r) -> (w, Result.get_ok r)) results in
        List.iter (fun (w, r) -> print_metrics ~prefix:(w ^ "/") r) ok;
        print_endline
          (Util.Json.to_string
             (Util.Json.Obj (List.map (fun (w, r) -> (w, result_to_json r)) ok)));
        if not (List.for_all (fun (_, r) -> r.correct) ok) then exit 1
  end
  else
    match run_workload cfg with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok r ->
        print_metrics r;
        print_endline (Util.Json.to_string (result_to_json r));
        if not r.correct then exit 1

(* ---- --agree ---- *)

(* Two result sets ({workload: result}) agree when every end-to-end metric
   differs by no more than its bound in BENCHMARK.json, every count is
   equal, and both sides are correct. *)
let agree a b =
  let member k j = Util.Json.member k j in
  let str k j = Option.bind (member k j) Util.Json.to_str in
  let num k j = Option.bind (member k j) Util.Json.to_float in
  let bounds =
    Option.value ~default:[]
      (Option.bind (member "end_to_end" (Oracle.read_json "BENCHMARK.json")) Util.Json.to_list)
    |> List.filter_map (fun m ->
           match (str "name" m, num "bound" m) with
           | Some n, Some b -> Some (n, b)
           | _ -> None)
  in
  let ok = ref true in
  let bad msg =
    ok := false;
    print_endline msg
  in
  let metrics r =
    match member "metrics" r with Some (Util.Json.Obj m) -> m | _ -> []
  in
  let compare w (name, ma) mb =
    match (num "value" ma, Option.bind mb (num "value")) with
    | Some va, Some vb -> (
        let rel = if va <> 0. then (vb -. va) /. Float.abs va else 0. in
        let line verdict =
          Printf.sprintf "%-12s %-26s %14.6g %14.6g %+8.2f%%  %s" w name va vb
            (100. *. rel) verdict
        in
        match (str "unit" ma, List.assoc_opt name bounds) with
        | Some "count", _ ->
            if va = vb then print_endline (line "exact")
            else bad (line "COUNT DIFFERS")
        | _, Some bound ->
            let verdict = Printf.sprintf "bound %.0f%%" (100. *. bound) in
            if Float.abs rel <= bound then print_endline (line verdict)
            else bad (line (verdict ^ " EXCEEDED"))
        | _, None -> print_endline (line ""))
    | _ -> bad (Printf.sprintf "%s: %s missing" w name)
  in
  let sb = Oracle.read_json b in
  (match Oracle.read_json a with
  | Util.Json.Obj workloads ->
      List.iter
        (fun (w, ra) ->
          match member w sb with
          | None -> bad (Printf.sprintf "%s: missing from %s" w b)
          | Some rb ->
              List.iter
                (fun r ->
                  if
                    member "correct" r <> Some (Util.Json.Bool true)
                    || member "failed" r <> Some (Util.Json.Int 0)
                  then bad (w ^ ": a run is not correct"))
                [ ra; rb ];
              List.iter
                (fun ((name, _) as m) ->
                  compare w m (List.assoc_opt name (metrics rb)))
                (metrics ra))
        workloads
  | _ -> bad (a ^ ": not a result set"));
  exit (if !ok then 0 else 1)

(* ---- --make-golden ---- *)

let make_golden data =
  let rerun = Work.get (Util.Json.member "rerun") (Work.load_spec data) "workloads" in
  let sp = Spans.create () and acc = Work.acc () in
  let section budgets ~output =
    List.map
      (fun (b : Suites.Suite.benchmark) ->
        let name = b.Suites.Suite.name in
        match Work.chain sp acc ~budgets name b.Suites.Suite.source with
        | Error e -> failwith (name ^ ": " ^ e)
        | Ok (r, out) -> (
            match Oracle.summarize r with
            | Error e -> failwith (name ^ ": " ^ e)
            | Ok (status, clock, scores) ->
                Printf.sprintf "%S: %s" name
                  (Util.Json.to_string
                     (Util.Json.Obj
                        ([
                           ("status", Util.Json.String status);
                           ("clock", Util.Json.Int clock);
                           ("scores", Util.Json.String scores);
                         ]
                        @
                        if output then
                          [ ("output", Util.Json.String (Oracle.digest_output out)) ]
                        else [])))))
      (Suites.Suite.all ())
    |> String.concat ",\n"
  in
  Printf.printf "{\"campaign\": {\n%s\n},\n\"rerun\": {\n%s\n}}\n"
    (section Campaign.Runner.default_budgets ~output:true)
    (section (Work.rerun_budgets rerun) ~output:false)

(* ---- command line ---- *)

let usage =
  "perf.exe --workload {suite|call-dense|guarded-run|rerun|all} --seed N \
   --seconds S --trace {0|1} [--scale smoke] [--data DIR]\n\
   perf.exe --agree A.json B.json\n\
   perf.exe --make-golden [--data DIR]\n"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref 0 and smoke = ref false and data = ref "bench/perf" in
  let agree_files = ref None and golden = ref false in
  let child_dir = ref None and phase = ref "untraced" in
  let a = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  suite, call-dense, guarded-run, rerun or all");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S  nominal run length");
      ("--trace", Arg.Set_int trace, "0|1  1: traced run, per-layer metrics");
      ( "--scale",
        Arg.Symbol ([ "full"; "smoke" ], fun s -> smoke := s = "smoke"),
        "  smoke: two tasks per workload" );
      ("--data", Arg.Set_string data, "DIR  workloads.json and golden/ (default bench/perf)");
      ( "--agree",
        Arg.Tuple [ Arg.Set_string a; Arg.String (fun b -> agree_files := Some (!a, b)) ],
        "A B  compare two result sets" );
      ("--make-golden", Arg.Set golden, "  print the golden file");
      ("--child", Arg.String (fun d -> child_dir := Some d), "DIR  (internal) workload process");
      ( "--phase",
        Arg.Symbol (List.map fst Work.phases, fun p -> phase := p),
        "  (internal) what the workload process runs" );
    ]
  in
  let usage_error msg =
    prerr_string (msg ^ "\n" ^ Arg.usage_string specs usage);
    exit 2
  in
  Arg.parse specs (fun x -> usage_error ("unexpected argument " ^ x)) usage;
  match (!agree_files, !golden) with
  | Some (a, b), _ -> agree a b
  | None, true -> make_golden !data
  | None, false -> (
      if not (List.mem !workload ("all" :: Work.names)) then
        usage_error "--workload must be suite, call-dense, guarded-run, rerun or all";
      if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
      let defaults = Work.load_spec !data in
      let cfg =
        {
          Work.workload = !workload;
          seed =
            Option.value !seed ~default:(Work.int defaults "default_seed");
          seconds =
            Option.value !seconds ~default:(Work.num defaults "default_seconds");
          smoke = !smoke;
          trace = !trace = 1;
          data = !data;
        }
      in
      if cfg.Work.seconds <= 0. then usage_error "--seconds must be positive";
      match !child_dir with
      | Some dir -> child cfg ~phase:(List.assoc !phase Work.phases) dir
      | None -> run cfg)
