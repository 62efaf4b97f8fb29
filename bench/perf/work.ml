(* The four workloads. Set-up generates a workload's inputs from the seed.
   The untraced phase runs them through the same public entry points a
   user drives (Campaign.Runner.run, Parrun.Guard.run) and yields the
   end-to-end metrics. The traced phase repeats the work as explicit calls
   into each layer, wrapped in spans, and yields the per-layer metrics. *)

let now = Unix.gettimeofday

external maxrss_kb : unit -> int = "perf_maxrss_kb"

let names = [ "suite"; "call-dense"; "guarded-run"; "rerun" ]

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  smoke : bool;  (** two tasks, one repeat: the tier-1 smoke test *)
  trace : bool;  (** a traced run: one repeat *)
  data : string;  (** directory holding workloads.json and golden/ *)
}

(* ---- workloads.json: program lists, sizes and their recorded reasons ---- *)

let load_spec data = Oracle.read_json (Filename.concat data "workloads.json")

let get conv w key =
  match Option.bind (Util.Json.member key w) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "workloads.json: bad or missing %S" key)

let num = get Util.Json.to_float
let int = get Util.Json.to_int

let spec cfg = get (Util.Json.member cfg.workload) (load_spec cfg.data) "workloads"

(* A program list: "all" registered programs but those under "excluded",
   an array of names, or an object keyed by name whose values record the
   selection property. *)
let programs w key =
  get
    (function
      | Util.Json.String "all" ->
          let excluded =
            match Util.Json.member "excluded" w with
            | Some (Util.Json.Obj kvs) -> List.map fst kvs
            | _ -> []
          in
          Some
            (List.filter (fun p -> not (List.mem p excluded)) (Suites.Suite.names ()))
      | Util.Json.List l -> Some (List.filter_map Util.Json.to_str l)
      | Util.Json.Obj kvs -> Some (List.map fst kvs)
      | _ -> None)
    w key

let source name =
  match Suites.Suite.find name with
  | Some b -> b.Suites.Suite.source
  | None -> failwith ("unknown program " ^ name)

(* How many times the workload's repeat unit runs. It depends on
   [--seconds] and on the unit's nominal duration on the reference host,
   never on a clock, so every run of a seed does the same work. *)
let repeats cfg w =
  if cfg.smoke || cfg.trace then 1
  else max 1 (Float.to_int (Float.round (cfg.seconds /. num w "repeat_unit_s")))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let rerun_budgets w =
  { Campaign.Runner.default_budgets with fuel = int w "fuel"; retries = 0 }

(* ---- what a phase measured ---- *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  fastest : (string, float * float) Hashtbl.t;
      (** per task of the repeat unit: its fastest wall and CPU seconds *)
  mutable rss_kb : int;  (** peak resident size when the first repeat ended *)
  mutable runner_s : float;  (** wall inside Campaign.Runner.run *)
  mutable overhead_s : float;  (** of which no task or cache hook ran *)
  mutable lines : int;
  mutable loops : int;
  mutable instructions : int;  (** retired by the interpreter runs timed in instr_s *)
  mutable instr_s : float;
  mutable invocations : int;
  mutable iterations : int;
  mutable instances : int;
  mutable mispredicts : int;
  mutable profile_alloc : float;
  mutable eval_iters : int;
  mutable eval_alloc : float;
  mutable sharded : int;
  mutable committed : int;
  mutable shards : int;
  mutable delegate_s : float;
  mutable children_cpu : float;
  mutable finds : int;
  mutable hits : int;
  mutable find_s : float;
  mutable stores : int;
  mutable store_s : float;
}

let acc () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    fastest = Hashtbl.create 64;
    rss_kb = 0;
    runner_s = 0.;
    overhead_s = 0.;
    lines = 0;
    loops = 0;
    instructions = 0;
    instr_s = 0.;
    invocations = 0;
    iterations = 0;
    instances = 0;
    mispredicts = 0;
    profile_alloc = 0.;
    eval_iters = 0;
    eval_alloc = 0.;
    sharded = 0;
    committed = 0;
    shards = 0;
    delegate_s = 0.;
    children_cpu = 0.;
    finds = 0;
    hits = 0;
    find_s = 0.;
    stores = 0;
    store_s = 0.;
  }

let fail acc msg =
  acc.failed <- acc.failed + 1;
  acc.errors <- msg :: acc.errors

let check acc = Option.iter (fail acc)

(* User + system time of this process and its reaped children. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Every task of the repeat unit recurs once per repeat; keep the fastest
   wall and CPU time seen for it, the repeat least disturbed by other load
   on the host. *)
let record acc id ~wall ~cpu =
  let w, c =
    Option.value ~default:(infinity, infinity) (Hashtbl.find_opt acc.fastest id)
  in
  Hashtbl.replace acc.fastest id (Float.min w wall, Float.min c cpu)

(* Later repeats run on a heap whose garbage depends on the previous
   repeat's order, so the peak is taken when the first repeat ends. *)
let repeat_done acc = if acc.rss_kb = 0 then acc.rss_kb <- maxrss_kb ()

(* ---- inputs ---- *)

type guarded_task = {
  g_name : string;
  g_source : string;
  g_kernel : (Oracle.kernel * int) option;  (** synthetic kernel and its n *)
}

type rerun = {
  budgets : Campaign.Runner.budgets;
  fingerprint : string;
  cache : Service.Cache.t;
  sources : (string, string) Hashtbl.t;  (** current text, edits applied *)
  plan : (string list * string list) list list;
      (** per cycle, per round: target order, programs edited just before
          it *)
}

type input =
  | Campaign of (string * string) list list  (** rounds of (program, source) *)
  | Guarded of guarded_task list list  (** rounds *)
  | Rerun of rerun

let cache_key rr p =
  Service.Cache.key ~source:(Hashtbl.find rr.sources p) ~fingerprint:rr.fingerprint

(* Run the plan: before each round, append a comment to the programs it
   edits, which changes their cache keys but not their analysis. *)
let rerun_rounds rr ~cycle_done f =
  List.iteri
    (fun c cycle ->
      List.iteri
        (fun i (order, edited) ->
          List.iter
            (fun p ->
              Hashtbl.replace rr.sources p
                (Hashtbl.find rr.sources p ^ Printf.sprintf "\n// edit %d.%d\n" c i))
            edited;
          f order edited)
        cycle;
      cycle_done ())
    rr.plan

let targets rr order = List.map (fun p -> (p, Hashtbl.find rr.sources p)) order

let setup cfg ~golden ~dir acc =
  let w = spec cfg in
  let rng = Random.State.make [| cfg.seed |] in
  let list () = programs w (if cfg.smoke then "smoke" else "programs") in
  let repeat unit = List.init (repeats cfg w) (fun _ -> unit ()) in
  match cfg.workload with
  | "suite" | "call-dense" ->
      (* the program whose profile holds the most memory opens every pass,
         so the heap peaks on a fresh heap and the peak does not depend on
         the order the seed draws *)
      let first = get Util.Json.to_str w "first" in
      let pass () =
        let order = shuffle rng (list ()) in
        if List.mem first order then first :: List.filter (( <> ) first) order
        else order
      in
      Campaign (repeat (fun () -> List.map (fun p -> (p, source p)) (pass ())))
  | "guarded-run" ->
      let kernel k n =
        {
          g_name = Printf.sprintf "%s@%d" (Oracle.kernel_name k) n;
          g_source = Oracle.kernel_source k n;
          g_kernel = Some (k, n);
        }
      in
      let named p =
        match Oracle.kernel_of_name p with
        | Some k -> kernel k (int w "smoke_n")
        | None -> { g_name = p; g_source = source p; g_kernel = None }
      in
      if cfg.smoke then Guarded [ List.map named (list ()) ]
      else
        let lo = int w "n_min" and hi = int w "n_max" in
        let q = (hi - lo) / 4 in
        (* each kernel runs at a size drawn from its own quarter of
           [lo, hi] and at that size's mirror image, so the unit's work
           hardly depends on the seed *)
        let pair k quarter =
          let n = lo + (quarter * q) + Random.State.int rng (q + 1) in
          [ kernel k n; kernel k (lo + hi - n) ]
        in
        let unit =
          List.map named (list ()) @ pair Oracle.Reduce 0 @ pair Oracle.Map 1
        in
        Guarded (repeat (fun () -> shuffle rng unit))
  | "rerun" ->
      let budgets = rerun_budgets w in
      let progs = list () in
      let sources = Hashtbl.create 64 in
      List.iter (fun p -> Hashtbl.replace sources p (source p)) progs;
      let per_cycle = if cfg.smoke then 2 else int w "rounds_per_cycle" in
      (* every program is edited exactly once per cycle, so a cycle's miss
         work does not depend on the seed *)
      let cycle () =
        let perm = shuffle rng progs in
        List.init per_cycle (fun g ->
            ( shuffle rng progs,
              List.filteri (fun i _ -> i mod per_cycle = g) perm ))
      in
      let plan = repeat cycle in
      let rr =
        {
          budgets;
          fingerprint =
            Service.Keys.campaign ~budgets ~configs:Loopa.Config.figure_ladder;
          cache = Service.Cache.open_dir (Filename.concat dir "cache");
          sources;
          plan = (if cfg.smoke then [ [ List.hd (List.hd plan) ] ] else plan);
        }
      in
      (* the cold campaign a re-run follows, keyed as campaign --cache keys *)
      let s =
        Campaign.Runner.run ~budgets
          ~cache_store:(fun p r ->
            Service.Cache.store rr.cache (cache_key rr p)
              (Campaign.Runner.result_to_json r))
          (targets rr progs)
      in
      List.iter
        (fun (r : Campaign.Runner.result) ->
          check acc (Oracle.check_result golden ~section:"rerun" r.target r))
        s.Campaign.Runner.results;
      Rerun rr
  | w -> failwith ("unknown workload " ^ w)

(* ---- untraced phase ---- *)

(* One serial campaign. A task's wall and CPU time run from the previous
   heartbeat, which the runner emits after every finished task (cache hits
   included), so runner bookkeeping is charged to the task it follows.
   [ids] names the tasks in the order their heartbeats arrive. *)
let campaign_round acc ~golden ~section ~budgets ?cache_find ?cache_store
    ~fresh ~ids round =
  let hooks0 = acc.find_s +. acc.store_s in
  let t0 = now () in
  let last = ref (t0, cpu_now ()) and pending = ref ids in
  let heartbeat _ =
    let t = now () and c = cpu_now () in
    let t', c' = !last in
    (match !pending with
    | id :: rest ->
        record acc id ~wall:(t -. t') ~cpu:(c -. c');
        pending := rest
    | [] -> ());
    last := (t, c)
  in
  let s =
    Campaign.Runner.run ~budgets ~executor:Campaign.Runner.Serial ~heartbeat
      ?cache_find ?cache_store round
  in
  let wall = now () -. t0 in
  let task_s =
    List.fold_left
      (fun a (r : Campaign.Runner.result) ->
        if fresh r.Campaign.Runner.target then a +. r.Campaign.Runner.wall_s
        else a)
      0. s.Campaign.Runner.results
  in
  acc.attempted <- acc.attempted + List.length round;
  acc.runner_s <- acc.runner_s +. wall;
  acc.overhead_s <-
    acc.overhead_s +. wall -. task_s -. (acc.find_s +. acc.store_s -. hooks0);
  List.iter
    (fun (r : Campaign.Runner.result) ->
      check acc (Oracle.check_result golden ~section r.target r))
    s.Campaign.Runner.results

let knobs = { Parrun.Runner.default_knobs with Parrun.Runner.jobs = 2 }

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* One guarded run, checked: byte-identical passes, and the serial pass's
   output equal to its golden digest or closed form. Returns the result and
   the wall its parallel pass spent in the delegate. *)
let guarded acc ~golden g =
  let c0 = children_cpu () in
  match Parrun.Guard.run ~knobs ~predict:false ~target:g.g_name g.g_source with
  | Error f ->
      fail acc (g.g_name ^ ": " ^ Loopa.Driver.failure_to_string f);
      None
  | Ok r ->
      acc.children_cpu <- acc.children_cpu +. children_cpu () -. c0;
      let delegate =
        List.fold_left
          (fun d (s : Parrun.Runner.loop_stats) ->
            acc.sharded <- acc.sharded + s.Parrun.Runner.st_sharded;
            acc.committed <- acc.committed + s.Parrun.Runner.st_committed;
            acc.shards <- acc.shards + s.Parrun.Runner.st_shards;
            d +. s.Parrun.Runner.st_par_wall)
          0.
          (Parrun.Runner.loop_stats r.Parrun.Guard.runner)
      in
      acc.delegate_s <- acc.delegate_s +. delegate;
      (if not r.Parrun.Guard.identical then
         fail acc
           (Printf.sprintf "%s: guarded run diverged: %s" g.g_name
              (String.concat "; " r.Parrun.Guard.diffs))
       else
         match (r.Parrun.Guard.serial, g.g_kernel) with
         | Parrun.Guard.Trapped t, _ ->
             fail acc (g.g_name ^ ": trapped: " ^ t.msg)
         | Parrun.Guard.Finished o, Some (k, n) ->
             let want = Oracle.kernel_output k n in
             if o.Interp.Machine.output <> want then
               fail acc
                 (Printf.sprintf "%s: printed %S, closed form %S" g.g_name
                    o.Interp.Machine.output want)
         | Parrun.Guard.Finished o, None ->
             check acc
               (Oracle.check_output golden ~section:"campaign" g.g_name
                  ~clock:o.Interp.Machine.clock o.Interp.Machine.output));
      Some (r, delegate)

let untraced ~golden input acc =
  match input with
  | Campaign rounds ->
      List.iter
        (fun round ->
          campaign_round acc ~golden ~section:"campaign"
            ~budgets:Campaign.Runner.default_budgets ~fresh:(fun _ -> true)
            ~ids:(List.map fst round) round;
          repeat_done acc)
        rounds
  | Guarded rounds ->
      List.iter
        (fun round ->
          List.iter
            (fun g ->
              let t0 = now () and c0 = cpu_now () in
              ignore (guarded acc ~golden g);
              record acc g.g_name ~wall:(now () -. t0) ~cpu:(cpu_now () -. c0);
              acc.attempted <- acc.attempted + 1)
            round;
          repeat_done acc)
        rounds
  | Rerun rr ->
      let timed_hook f =
        let t0 = now () in
        let v = f () in
        (v, now () -. t0)
      in
      let cache_find p =
        let r, dt =
          timed_hook (fun () ->
              Option.bind (Service.Cache.find rr.cache (cache_key rr p)) (fun v ->
                  match Campaign.Runner.result_of_json v with
                  | Ok r -> Some { r with Campaign.Runner.target = p }
                  | Error _ -> None))
        in
        acc.finds <- acc.finds + 1;
        acc.find_s <- acc.find_s +. dt;
        if r <> None then acc.hits <- acc.hits + 1;
        r
      in
      let cache_store p r =
        let (), dt =
          timed_hook (fun () ->
              Service.Cache.store rr.cache (cache_key rr p)
                (Campaign.Runner.result_to_json r))
        in
        acc.stores <- acc.stores + 1;
        acc.store_s <- acc.store_s +. dt
      in
      (* the runner beats for every hit while it prefetches, then for every
         miss as it runs; a program misses once and hits in every other
         round of a cycle *)
      let hits = Hashtbl.create 64 in
      rerun_rounds rr
        ~cycle_done:(fun () ->
          Hashtbl.reset hits;
          repeat_done acc)
        (fun order edited ->
          let missed p = List.mem p edited in
          let hit_id p =
            let j = 1 + Option.value ~default:0 (Hashtbl.find_opt hits p) in
            Hashtbl.replace hits p j;
            Printf.sprintf "%s/hit%d" p j
          in
          let ids =
            List.map hit_id (List.filter (fun p -> not (missed p)) order)
            @ List.map (fun p -> p ^ "/miss") (List.filter missed order)
          in
          campaign_round acc ~golden ~section:"rerun" ~budgets:rr.budgets
            ~cache_find ~cache_store ~fresh:missed ~ids (targets rr order))

(* ---- traced phase ---- *)

let count_lines src =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 src

let count_loops (ms : Loopa.Classify.module_static) =
  Hashtbl.fold
    (fun _ (fs : Loopa.Classify.func_static) n ->
      n + Array.length fs.Loopa.Classify.loops)
    ms.Loopa.Classify.funcs 0

(* The chain Campaign.Runner's attempt calls, one layer per span:
   compile, prepare, profile_result, then evaluate per rung. One unhooked
   interpreter run of the same program and fuel is added as trace.extra;
   its duration becomes a derived "interp" child of the profile span, so
   the profile span's self time is the listener's and predictors' share.
   Returns the result the runner would record and the program's output. *)
let chain sp acc ~(budgets : Campaign.Runner.budgets) name src =
  let fuel = budgets.fuel
  and mem_limit = budgets.mem_limit
  and max_depth = budgets.max_depth in
  match Spans.with_span sp "frontend" (fun () -> Frontend.compile src) with
  | Error e -> Error (Frontend.error_to_string e)
  | Ok m -> (
      acc.lines <- acc.lines + count_lines src;
      let ms = Spans.with_span sp "classify" (fun () -> Loopa.Driver.prepare m) in
      acc.loops <- acc.loops + count_loops ms;
      match
        Spans.timed sp Spans.extra (fun () ->
            try
              Ok
                (Interp.Machine.run_main
                   (Interp.Machine.create ~fuel ~mem_limit ~max_depth
                      ms.Loopa.Classify.modul))
            with e -> Error (Printexc.to_string e))
      with
      | Error e, _ -> Error ("unhooked run: " ^ e)
      | Ok plain, interp_s -> (
          let a0 = Gc.allocated_bytes () in
          let prof =
            Spans.with_span sp "profile" (fun () ->
                Spans.derived sp "interp" ~t0:(now ()) ~dur:interp_s;
                Loopa.Driver.profile_result ~fuel ~mem_limit ~max_depth ms)
          in
          acc.profile_alloc <- acc.profile_alloc +. Gc.allocated_bytes () -. a0;
          match prof with
          | Error f -> Error (Loopa.Driver.failure_to_string f)
          | Ok p when p.Loopa.Profile.total_cost <> plain.Interp.Machine.clock ->
              Error
                (Printf.sprintf "unhooked run retired %d instructions, profiled %d"
                   plain.Interp.Machine.clock p.Loopa.Profile.total_cost)
          | Ok p ->
              acc.instructions <- acc.instructions + plain.Interp.Machine.clock;
              acc.instr_s <- acc.instr_s +. interp_s;
              let iters = ref 0 in
              Array.iter
                (fun (inv : Loopa.Profile.inv) ->
                  iters := !iters + Ir.Vec.length inv.Loopa.Profile.iter_starts;
                  Array.iter
                    (fun (tr : Loopa.Profile.reg_track) ->
                      acc.instances <- acc.instances + tr.Loopa.Profile.n_instances;
                      acc.mispredicts <-
                        acc.mispredicts + tr.Loopa.Profile.n_mispredicts)
                    inv.Loopa.Profile.tracks)
                p.Loopa.Profile.invs;
              acc.invocations <- acc.invocations + Array.length p.Loopa.Profile.invs;
              acc.iterations <- acc.iterations + !iters;
              let a1 = Gc.allocated_bytes () in
              let scores =
                List.filter_map
                  (fun config ->
                    match Loopa.Config.validate config with
                    | Error _ -> None
                    | Ok _ ->
                        let r =
                          Spans.with_span sp "evaluate" (fun () ->
                              Loopa.Evaluate.evaluate p config)
                        in
                        Some
                          {
                            Campaign.Runner.config;
                            speedup = r.Loopa.Evaluate.speedup;
                            coverage_pct = r.Loopa.Evaluate.coverage_pct;
                          })
                  Loopa.Config.figure_ladder
              in
              acc.eval_alloc <- acc.eval_alloc +. Gc.allocated_bytes () -. a1;
              acc.eval_iters <- acc.eval_iters + (!iters * List.length scores);
              let clock = p.Loopa.Profile.total_cost in
              let status =
                if not p.Loopa.Profile.truncated then Campaign.Runner.Completed scores
                else
                  let kind =
                    match p.Loopa.Profile.outcome.Interp.Machine.stop with
                    | Interp.Machine.Truncated k -> k
                    | Interp.Machine.Completed -> Interp.Rvalue.Fuel
                  in
                  if clock = 0 then
                    Campaign.Runner.Errored (Campaign.Runner.Budget_exhausted kind)
                  else Campaign.Runner.Truncated (kind, scores)
              in
              Ok
                ( { Campaign.Runner.target = name; status; attempts = 1; clock; wall_s = 0. },
                  p.Loopa.Profile.outcome.Interp.Machine.output )))

(* Guard.run is one opaque call. Its compile and prepare are estimated by
   a second compile and prepare run before it as trace.extra; its serial
   reference pass and the interpretation inside its parallel pass come
   from the result's walls. The rest of the span is parrun's own: the
   delegate (fork, shards, conflict check, commit) and its bookkeeping. *)
let guarded_traced sp acc ~golden g =
  match Spans.timed sp Spans.extra (fun () -> Frontend.compile g.g_source) with
  | Error e, _ -> fail acc (g.g_name ^ ": " ^ Frontend.error_to_string e)
  | Ok m, compile_s ->
      let ms, prepare_s =
        Spans.timed sp Spans.extra (fun () -> Loopa.Driver.prepare m)
      in
      acc.lines <- acc.lines + count_lines g.g_source;
      acc.loops <- acc.loops + count_loops ms;
      Spans.with_span sp "parrun" (fun () ->
          let t0 = now () in
          match guarded acc ~golden g with
          | None -> ()
          | Some (r, delegate) ->
              let serial = r.Parrun.Guard.serial_wall in
              let t1 = t0 +. compile_s +. prepare_s in
              Spans.derived sp "frontend" ~t0 ~dur:compile_s;
              Spans.derived sp "classify" ~t0:(t0 +. compile_s) ~dur:prepare_s;
              Spans.derived sp "interp" ~t0:t1 ~dur:serial;
              Spans.derived sp "interp" ~t0:(t1 +. serial)
                ~dur:(r.Parrun.Guard.parallel_wall -. delegate);
              acc.instr_s <- acc.instr_s +. serial;
              acc.instructions <-
                acc.instructions
                +
                match r.Parrun.Guard.serial with
                | Parrun.Guard.Finished o -> o.Interp.Machine.clock
                | Parrun.Guard.Trapped t -> t.clock)

let traced ~golden input sp acc =
  let task name f =
    acc.attempted <- acc.attempted + 1;
    Spans.task sp (fun () ->
        try f () with e -> fail acc (name ^ ": " ^ Printexc.to_string e))
  in
  match input with
  | Campaign rounds ->
      List.iter
        (List.iter (fun (p, src) ->
             task p (fun () ->
                 match
                   chain sp acc ~budgets:Campaign.Runner.default_budgets p src
                 with
                 | Error e -> fail acc (p ^ ": " ^ e)
                 | Ok (r, output) ->
                     check acc
                       (List.find_map Fun.id
                          [
                            Oracle.check_result golden ~section:"campaign" p r;
                            Oracle.check_output golden ~section:"campaign" p
                              ~clock:r.Campaign.Runner.clock output;
                          ]))))
        rounds
  | Guarded rounds ->
      List.iter
        (List.iter (fun g ->
             task g.g_name (fun () -> guarded_traced sp acc ~golden g)))
        rounds
  | Rerun rr ->
      rerun_rounds rr ~cycle_done:ignore (fun order _ ->
          List.iter
            (fun p ->
              task p (fun () ->
                  let key = cache_key rr p in
                  let hit, find_s =
                    Spans.timed sp "service" (fun () ->
                        Option.bind (Service.Cache.find rr.cache key) (fun v ->
                            Result.to_option (Campaign.Runner.result_of_json v)))
                  in
                  acc.finds <- acc.finds + 1;
                  acc.find_s <- acc.find_s +. find_s;
                  match hit with
                  | Some r ->
                      acc.hits <- acc.hits + 1;
                      check acc (Oracle.check_result golden ~section:"rerun" p r)
                  | None -> (
                      match
                        chain sp acc ~budgets:rr.budgets p (Hashtbl.find rr.sources p)
                      with
                      | Error e -> fail acc (p ^ ": " ^ e)
                      | Ok (r, _) ->
                          check acc (Oracle.check_result golden ~section:"rerun" p r);
                          let (), store_s =
                            Spans.timed sp "service" (fun () ->
                                Service.Cache.store rr.cache key
                                  (Campaign.Runner.result_to_json r))
                          in
                          acc.stores <- acc.stores + 1;
                          acc.store_s <- acc.store_s +. store_s)))
            order)

(* ---- metrics ---- *)

type metric = string * float * string

let ratio a b = if b > 0. then a /. b else 0.

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float (Array.length a - 1) in
      let i = Float.to_int pos in
      let frac = pos -. float i in
      if i + 1 < Array.length a then a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
      else a.(i)

let gc_mark () =
  (Gc.allocated_bytes (), (Gc.quick_stat ()).Gc.major_collections)

(* Per-layer metrics that only an untraced run can give. *)
let untraced_layer_metrics =
  [ "campaign.overhead_share"; "runtime.major_gcs"; "runtime.alloc_mb" ]

(* Every end-to-end metric but setup_s, which the parent process measures,
   then the [untraced_layer_metrics]. *)
let untraced_metrics u ~gc : metric list =
  let alloc, major = gc in
  let walls, cpus =
    Hashtbl.fold (fun _ (w, c) (ws, cs) -> (w :: ws, c :: cs)) u.fastest ([], [])
  in
  let n = float (List.length walls) and sum = List.fold_left ( +. ) 0. in
  [
    ("programs_per_s", ratio n (sum walls), "tasks/s");
    ("task_p50_s", percentile walls 0.5, "s");
    ("task_p80_s", percentile walls 0.8, "s");
    ("cpu_s_per_task", ratio (sum cpus) n, "s");
    ("peak_rss_mb", float u.rss_kb *. 1024. /. 1e6, "MB");
    ("campaign.overhead_share", ratio u.overhead_s u.runner_s, "ratio");
    ("runtime.major_gcs", float major, "collections");
    ("runtime.alloc_mb", alloc /. 1e6, "MB");
  ]

(* [base] is the traced phase's wall without the calls it added. *)
let traced_metrics sp t ~base : metric list =
  let selfs = Spans.self_times sp in
  let self name = Option.value ~default:0. (Hashtbl.find_opt selfs name) in
  let layers =
    Hashtbl.fold (fun name s a -> if name = "task" then a else a +. s) selfs 0.
  in
  let c x = float x in
  [
    ("frontend.self_s", self "frontend", "s");
    ("frontend.lines_per_s", ratio (c t.lines) (self "frontend"), "lines/s");
    ("classify.self_s", self "classify", "s");
    ("classify.loops_per_s", ratio (c t.loops) (self "classify"), "loops/s");
    ("interp.self_s", self "interp", "s");
    ("interp.instr_per_s", ratio (c t.instructions) t.instr_s, "instr/s");
    ("interp.instructions", c t.instructions, "count");
    ("profile.share", ratio (self "profile") base, "ratio");
    ("profile.iters_per_s", ratio (c t.iterations) (self "profile"), "iters/s");
    ("profile.invocations", c t.invocations, "count");
    ("profile.iterations", c t.iterations, "count");
    ("profile.alloc_mb", t.profile_alloc /. 1e6, "MB");
    ("predictors.instances", c t.instances, "count");
    ( "predictors.hit_ratio",
      (if t.instances > 0 then 1. -. ratio (c t.mispredicts) (c t.instances)
       else 0.),
      "ratio" );
    ("evaluate.share", ratio (self "evaluate") base, "ratio");
    ("evaluate.iters_per_s", ratio (c t.eval_iters) (self "evaluate"), "iters/s");
    ("evaluate.alloc_mb", t.eval_alloc /. 1e6, "MB");
    ("parrun.share", ratio (self "parrun") base, "ratio");
    ("parrun.delegate_share", ratio t.delegate_s base, "ratio");
    ("parrun.shards", c t.shards, "count");
    ("parrun.commit_ratio", ratio (c t.committed) (c t.sharded), "ratio");
    ("exec.shards_per_s", ratio (c t.shards) t.delegate_s, "1/s");
    ("exec.children_cpu_share", ratio t.children_cpu base, "ratio");
    ("service.finds_per_s", ratio (c t.finds) t.find_s, "1/s");
    ("service.stores_per_s", ratio (c t.stores) t.store_s, "1/s");
    ("service.hit_ratio", ratio (c t.hits) (c t.finds), "ratio");
    ("trace.self_coverage", ratio layers base, "ratio");
  ]

(* ---- one workload process ---- *)

(* The untraced and the traced phase run in separate processes, so that
   neither runs on a heap the other has grown. *)
type phase = Setup_only | Untraced | Traced

let phases = [ ("setup", Setup_only); ("untraced", Untraced); ("traced", Traced) ]

type outcome = {
  t_ready : float;  (** when the first timed task started *)
  wall : float;
      (** untraced: the timed phase's wall; traced: its wall without the
          trace.extra calls *)
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;
}

let trace_path cfg =
  Filename.concat ".perf-run"
    (Printf.sprintf "trace-%s-seed%d.json" cfg.workload cfg.seed)

let run cfg ~phase ~dir =
  let golden = Oracle.read_json (Filename.concat cfg.data "golden/results.json") in
  let s = acc () in
  let input = setup cfg ~golden ~dir s in
  let t_ready = now () in
  let finish ~wall metrics (phases : acc list) =
    let all = s :: phases in
    let sum f = List.fold_left (fun n (a : acc) -> n + f a) 0 all in
    {
      t_ready;
      wall;
      metrics;
      attempted = sum (fun a -> a.attempted);
      failed = sum (fun a -> a.failed);
      errors = List.concat_map (fun (a : acc) -> List.rev a.errors) all;
    }
  in
  match phase with
  | Setup_only -> finish ~wall:0. [] []
  | Untraced ->
      let u = acc () in
      let alloc0, major0 = gc_mark () in
      untraced ~golden input u;
      let wall = now () -. t_ready in
      let alloc1, major1 = gc_mark () in
      finish ~wall
        (untraced_metrics u ~gc:(alloc1 -. alloc0, major1 - major0))
        [ u ]
  | Traced ->
      let t = acc () and sp = Spans.create () in
      traced ~golden input sp t;
      let base = now () -. t_ready -. Spans.total_extra sp in
      (try Spans.write sp (trace_path cfg)
       with Sys_error e -> fail t ("trace file: " ^ e));
      finish ~wall:base (traced_metrics sp t ~base) [ t ]
