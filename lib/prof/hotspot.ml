(* The hotspot profiler: a shadow-stack listener over {!Interp.Events.hooks}
   plus the machine's per-opcode counters and deterministic sampler.

   Exact attribution works by charging clock deltas: the listener keeps the
   guest stack (function frames from call events, loop frames from loop
   events) and, at every stack transition, charges [clock - last_clock]
   retired instructions to the folded key of the stack as it was *before*
   the transition. A final {!finish} flushes the tail up to the machine's
   terminal clock, so the folded self-weights partition the clock exactly:
   their sum equals [Machine.instructions_retired]. on_loop_iter is
   stack-neutral and charges nothing.

   Wall attribution reads [wall_clock ()] at the same transitions and
   charges the delta to the innermost frame. Wall times never enter the
   folded exports — those stay byte-deterministic — only the flat summary.

   The sampling profile is independent of the hook stream: the machine's
   sampler (a pure function of the clock) calls back every
   [sample_period] retired instructions and we record the current folded
   key, so sample placement is identical across runs of the same program. *)

module Machine = Interp.Machine
module Events = Interp.Events

let default_period = 1000
let root_frame = "(root)"

type t = {
  sample_period : int;
  wall_clock : unit -> float;
  (* guest stack, innermost first; [fns] tracks just the function frames so
     loop frames can be qualified with their enclosing function's name *)
  mutable stack : string list;
  mutable fns : string list;
  mutable key : string; (* folded key of [stack], cached across samples *)
  mutable last_clock : int;
  mutable last_wall : float;
  mutable finished : bool;
  mutable machine : Machine.t option;
  mutable opcodes : (string * int) list; (* snapshot taken by [finish] *)
  self : (string, int ref) Hashtbl.t; (* folded key -> self instructions *)
  samples : (string, int ref) Hashtbl.t; (* folded key -> sample hits *)
  flat : (string, int ref * float ref) Hashtbl.t; (* frame -> instrs, wall *)
  mutable n_samples : int;
}

let create ?(sample_period = default_period) ?(wall_clock = Unix.gettimeofday)
    () =
  if sample_period <= 0 then
    invalid_arg "Hotspot.create: sample_period must be positive";
  {
    sample_period;
    wall_clock;
    stack = [];
    fns = [];
    key = root_frame;
    last_clock = 0;
    last_wall = wall_clock ();
    finished = false;
    machine = None;
    opcodes = [];
    self = Hashtbl.create 64;
    samples = Hashtbl.create 64;
    flat = Hashtbl.create 64;
    n_samples = 0;
  }

let refold t =
  t.key <-
    (match t.stack with
    | [] -> root_frame
    | stack -> String.concat ";" (List.rev stack))

let bump tbl key w =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + w
  | None -> Hashtbl.add tbl key (ref w)

(* Charge the interval since the previous transition to the current stack
   (exact folded profile) and its innermost frame (flat profile). *)
let charge t ~clock =
  let top = match t.stack with f :: _ -> f | [] -> root_frame in
  let instrs, wall = Hashtbl.find_opt t.flat top |> function
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0.0) in
        Hashtbl.add t.flat top cell;
        cell
  in
  let d = clock - t.last_clock in
  if d > 0 then begin
    bump t.self t.key d;
    instrs := !instrs + d;
    t.last_clock <- clock
  end;
  let now = t.wall_clock () in
  wall := !wall +. (now -. t.last_wall);
  t.last_wall <- now

let push t frame ~clock =
  charge t ~clock;
  t.stack <- frame :: t.stack;
  refold t

let pop t ~clock =
  charge t ~clock;
  (match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
  refold t

let current_fn t = match t.fns with f :: _ -> f | [] -> root_frame
let loop_frame t lid = Printf.sprintf "%s:loop%d" (current_fn t) lid

let on_sample t clock =
  ignore clock;
  t.n_samples <- t.n_samples + 1;
  bump t.samples t.key 1

(* Wrap [base]'s hooks with the shadow-stack updates; all non-stack events
   pass through untouched. The profiler observes, it never replaces. *)
let tee t (base : Events.hooks) =
  {
    base with
    Events.on_call_enter =
      (fun ~fname ~clock ->
        t.fns <- fname :: t.fns;
        push t fname ~clock;
        base.Events.on_call_enter ~fname ~clock);
    on_call_exit =
      (fun ~fname ~clock ->
        pop t ~clock;
        (match t.fns with [] -> () | _ :: rest -> t.fns <- rest);
        base.Events.on_call_exit ~fname ~clock);
    on_loop_enter =
      (fun ~lid ~clock ->
        push t (loop_frame t lid) ~clock;
        base.Events.on_loop_enter ~lid ~clock);
    on_loop_exit =
      (fun ~lid ~clock ->
        pop t ~clock;
        base.Events.on_loop_exit ~lid ~clock);
  }

let arm t m =
  t.machine <- Some m;
  Machine.enable_opcode_counts m;
  Machine.set_sampler m ~period:t.sample_period (on_sample t)

(* Flush the tail interval up to the machine's final clock and snapshot its
   opcode counters. Idempotent; safe on every Driver exit path including
   trap unwinds (the machine clock is readable after a trap). *)
let finish t =
  if not t.finished then begin
    t.finished <- true;
    match t.machine with
    | None -> ()
    | Some m ->
        charge t ~clock:(Machine.clock m);
        t.opcodes <- Machine.opcode_counts m;
        Machine.clear_sampler m
  end

let folded t = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.self []
let sampled t = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.samples []

let flat t =
  Hashtbl.fold (fun k (i, w) acc -> (k, !i, !w) :: acc) t.flat []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let opcode_counts t = t.opcodes
let total_instrs t = Hashtbl.fold (fun _ r acc -> acc + !r) t.self 0
let n_samples t = t.n_samples
let sample_period t = t.sample_period

let write_files t ~base ~name =
  let strip s suffix =
    if Filename.check_suffix s suffix then Filename.chop_suffix s suffix else s
  in
  let base = strip base ".folded" in
  let exact = base ^ ".folded" in
  let samples = base ^ ".samples.folded" in
  let speedscope = base ^ ".speedscope.json" in
  Flamegraph.write_collapsed exact (folded t);
  Flamegraph.write_collapsed samples (sampled t);
  Flamegraph.write_speedscope speedscope ~name (folded t);
  [ exact; samples; speedscope ]
